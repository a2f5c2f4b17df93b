package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dupserve/internal/httpserver"
	"dupserve/internal/routing"
	"dupserve/internal/workload"
)

// seqLen is the length of each reader's seeded request sequence for one
// day; readers cycle through it.
const seqLen = 1 << 14

// request is one read of a sequence: a page, by index, and the region the
// visitor comes from, by index into regions.
type request struct {
	page   int32
	region uint8
}

var regions = []routing.Region{routing.RegionUS, routing.RegionJapan, routing.RegionEurope, routing.RegionAsia, routing.RegionOther}

// Seed streams, so the socket readers, the in-process readers and the
// layer timings draw different sequences from one --seed.
const (
	streamSocket = iota
	streamServe
	streamLayers
)

// traffic is each reader's request sequence for each day of the games; a
// reader reads the sequence of the day the site is on.
type traffic struct {
	days [][][]request // [day-1][reader]
}

// makeTraffic draws n readers' sequences for days 1 to days from the
// paper-calibrated traffic model (internal/workload): the Figure 23 region
// mix, over a quarter of hits on the current day's home page, Zipf over
// events, athletes and news, and 80% Japanese pages for Japan. The
// model's draws of static sections (Welcome, Venues, ...) are dropped: the
// plant serves the dynamic pages, and the paper served static content
// apart from them. Each (seed, stream, day, reader) draws its own sequence.
func makeTraffic(p *plant, seed int64, stream, n, days int) (*traffic, error) {
	index := make(map[string]int32, len(p.pages))
	for i, pg := range p.pages {
		index[pg] = int32(i)
	}
	statics := p.d.MasterSite.Statics()
	regionIndex := map[routing.Region]uint8{}
	for i, r := range regions {
		regionIndex[r] = uint8(i)
	}
	tr := &traffic{days: make([][][]request, days)}
	for d := range tr.days {
		tr.days[d] = make([][]request, n)
		for i := range tr.days[d] {
			src := ((seed*8+int64(stream))*32+int64(d))*1024 + int64(i)
			rng := rand.New(rand.NewSource(src))
			m := workload.New(workload.Config{Seed: src}, p.d.MasterSite)
			seq := make([]request, seqLen)
			for k := 0; k < len(seq); {
				r := m.SampleRegion(rng)
				path := m.SamplePage(rng, d+1, r)
				idx, ok := index[path]
				switch {
				case ok:
					seq[k] = request{page: idx, region: regionIndex[r]}
					k++
				case statics[path] == nil:
					return nil, fmt.Errorf("traffic model drew %s, which the site does not serve", path)
				}
			}
			tr.days[d][i] = seq
		}
	}
	return tr, nil
}

// seq returns reader i's sequence for day (1-based), or the last day's.
func (tr *traffic) seq(day, i int) []request {
	return tr.days[min(max(day, 1), len(tr.days))-1][i]
}

func (tr *traffic) readers() int { return len(tr.days[0]) }

// distinct returns the first request of each distinct page of reader i's
// day-one sequence, in order.
func (tr *traffic) distinct(i int) []request {
	seen := map[int32]bool{}
	var out []request
	for _, rq := range tr.days[0][i] {
		if !seen[rq.page] {
			seen[rq.page] = true
			out = append(out, rq)
		}
	}
	return out
}

// checkServe reads every distinct page of each reader's day-one sequence
// once through Deployment.Serve, before any commit, and compares the whole
// body and the version with the shadow render. It is not timed.
func checkServe(p *plant, tr *traffic, want expected) *window {
	return closedLoop(tr.readers(), func() bool { return false }, func(i int, res *reader, _ func() bool) {
		for _, rq := range tr.distinct(i) {
			path := p.pages[rq.page]
			t0 := time.Now()
			obj, outcome, _, err := p.d.Serve(regions[rq.region], path)
			res.observe(time.Since(t0))
			switch {
			case err != nil:
				res.fail(fmt.Errorf("serve %s: %w", path, err))
			case outcome != httpserver.OutcomeHit:
				res.fail(fmt.Errorf("serve %s: outcome %v", path, outcome))
			case obj == nil || string(obj.Key) != path:
				res.fail(fmt.Errorf("serve %s: wrong object", path))
			default:
				if err := want.body(rq.page, path, obj.Value); err != nil {
					res.fail(err)
				} else if v := want[rq.page].version; obj.Version != v {
					res.fail(fmt.Errorf("serve %s: version %d, shadow %d", path, obj.Version, v))
				}
			}
		}
	})
}

// runServe drives one in-process reader per sequence in a closed loop until
// stop reads true: Deployment.Serve, i.e. MSIRP, the complex dispatcher, a
// node, its httpserver and its cache, from the request's region. Each read
// must be a hit on the requested page. With want set, no commit runs
// meanwhile and each read's size and version must equal the shadow
// render's.
//
// A reader yields its processor every 64 reads, as a crowd of independent
// clients would, and then takes up the sequence of the site's current day.
// One that never yields keeps its processor until the runtime preempts it,
// up to 10 ms later, so every trigger monitor woken meanwhile waits a
// random share of that slice: the figures would measure the preemption
// tick rather than the plant.
func runServe(p *plant, tr *traffic, stop func() bool, want expected) *window {
	return closedLoop(tr.readers(), stop, func(i int, res *reader, stop func() bool) {
		var seq []request
		for k := 0; ; k++ {
			if k%64 == 0 {
				if stop() {
					return
				}
				runtime.Gosched()
				seq = tr.seq(int(p.day.Load()), i)
			}
			rq := seq[k%len(seq)]
			path := p.pages[rq.page]
			t0 := time.Now()
			obj, outcome, _, err := p.d.Serve(regions[rq.region], path)
			res.observe(time.Since(t0))
			switch {
			case err != nil:
				res.fail(fmt.Errorf("serve %s: %w", path, err))
			case outcome != httpserver.OutcomeHit:
				res.fail(fmt.Errorf("serve %s: outcome %v", path, outcome))
			case obj == nil || string(obj.Key) != path || len(obj.Value) == 0:
				res.fail(fmt.Errorf("serve %s: wrong object", path))
			case want != nil:
				if w := want[rq.page]; len(obj.Value) != w.size || obj.Version != w.version {
					res.fail(fmt.Errorf("serve %s: size %d version %d, shadow %d and %d", path, len(obj.Value), obj.Version, w.size, w.version))
				}
			}
		}
	})
}
