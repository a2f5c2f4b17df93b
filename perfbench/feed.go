package main

import (
	"fmt"
	"math/rand"
	"sort"

	"dupserve/internal/db"
	"dupserve/internal/site"
)

// opKind names one kind of games-feed commit.
type opKind uint8

const (
	opPartial opKind = iota // intermediate standing for an event under way
	opResult                // final result: results row, medal tally, ticker
	opNews                  // news story
	opDay                   // day rollover
)

// op is one commit of the games feed. Only the fields of its kind are set.
type op struct {
	kind           opKind
	event          int // index into site.Events
	leader         string
	gold, silver   string
	bronze, score  string
	story          int
	headline, body string
	day            int
}

// makeFeed generates the seeded games feed for st, the mix cmd/olympicsd
// feeds: each event gets three partials and then its final result, every
// third final publishes a news story, and the day rolls over as the
// schedule drains. Events run one after another in day order, shuffled
// within a day; the seed picks that order, the leaders, the medallists and
// the scores. The kinds therefore fall at the same positions for every
// seed, so a phase that commits the first n ops always commits the same
// mix. Unlike olympicsd's feed it never makes a call that commits nothing,
// so every op is one transaction.
func makeFeed(st *site.Site, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(st.Events))
	sort.SliceStable(order, func(i, j int) bool { return st.Events[order[i]].Day < st.Events[order[j]].Day })
	var feed []op
	day, story := 1, 0
	for done, evIdx := range order {
		p := st.Events[evIdx].Participants
		for k := 0; k < 3; k++ {
			feed = append(feed, op{kind: opPartial, event: evIdx,
				leader: p[rng.Intn(len(p))], score: fmt.Sprintf("%.1f", 200+rng.Float64()*60)})
		}
		feed = append(feed, op{kind: opResult, event: evIdx,
			gold: p[rng.Intn(len(p))], silver: p[rng.Intn(len(p))], bronze: p[rng.Intn(len(p))],
			score: fmt.Sprintf("%.1f", 240+rng.Float64()*20)})
		if done%3 == 2 && story < st.Spec.NewsStories {
			feed = append(feed, op{kind: opNews, story: story,
				headline: fmt.Sprintf("Story %d: drama at %s", story, st.Events[evIdx].Sport), body: "Live from Nagano."})
			story++
		}
		if want := 1 + (done+1)*st.Spec.Days/len(st.Events); want > day && want <= st.Spec.Days {
			day = want
			feed = append(feed, op{kind: opDay, day: day})
		}
	}
	return feed
}

// apply commits o through st's write-side calls.
func apply(st *site.Site, o op) (db.Transaction, error) {
	switch o.kind {
	case opPartial:
		return st.RecordPartial(st.Events[o.event], o.leader, o.score)
	case opResult:
		return st.RecordResult(st.Events[o.event], o.gold, o.silver, o.bronze, o.score)
	case opNews:
		return st.PublishNews(o.story, o.headline, o.body)
	default:
		return st.SetCurrentDay(o.day)
	}
}

// affectedPage is one English page that o must change: freshness is
// confirmed by reading its version from every node cache.
func affectedPage(st *site.Site, o op) string {
	switch o.kind {
	case opPartial, opResult:
		ev := st.Events[o.event]
		return fmt.Sprintf("/en/sports/%s/%s", ev.Sport, ev.Key)
	case opNews:
		return fmt.Sprintf("/en/news/n%03d", o.story)
	default:
		return fmt.Sprintf("/en/home/day%02d", o.day)
	}
}

// tally is one country's medal count.
type tally struct{ g, s, b int }

// medallists is one event's final result as the feed committed it.
type medallists struct{ gold, silver, bronze, score string }

// model is the benchmark's own account of what the feed committed, kept
// apart from the program: it is updated from the ops alone, and the pages
// the plant serves are compared with it.
type model struct {
	country func(athlete string) string // the taxonomy the feed was built on
	medals  map[string]*tally
	results map[int]medallists
	ticker  map[int][]string // per day, newest first, at most 8
	day     int
}

func newModel(country func(string) string) *model {
	return &model{country: country, medals: map[string]*tally{},
		results: map[int]medallists{}, ticker: map[int][]string{}, day: 1}
}

func (m *model) medal(athlete string) *tally {
	cc := m.country(athlete)
	t := m.medals[cc]
	if t == nil {
		t = &tally{}
		m.medals[cc] = t
	}
	return t
}

// observe folds one committed op into the model.
func (m *model) observe(st *site.Site, o op) {
	switch o.kind {
	case opResult:
		m.medal(o.gold).g++
		m.medal(o.silver).s++
		m.medal(o.bronze).b++
		m.results[o.event] = medallists{o.gold, o.silver, o.bronze, o.score}
		entry := fmt.Sprintf("%s gold %s (%s)", st.Events[o.event].Key, o.gold, m.country(o.gold))
		t := m.ticker[m.day]
		if len(t) > 7 {
			t = t[:7]
		}
		m.ticker[m.day] = append([]string{entry}, t...)
	case opDay:
		m.day = o.day
	}
}
