package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"dupserve/internal/cache"
	"dupserve/internal/db"
	"dupserve/internal/httpserver"
	"dupserve/internal/site"
)

// shadow is a separate site on its own database, fed the same write-side
// calls as the plant's master. Its renders are what every served page must
// equal.
type shadow struct {
	st       *site.Site
	rendered map[string]*cache.Object // at the current LSN
}

func newShadow(spec site.Spec) (*shadow, error) {
	st, err := site.Build(spec, db.New("shadow"), nil)
	if err != nil {
		return nil, fmt.Errorf("shadow site: %w", err)
	}
	return &shadow{st: st, rendered: map[string]*cache.Object{}}, nil
}

func (s *shadow) render(page string) (*cache.Object, error) {
	if obj, ok := s.rendered[page]; ok {
		return obj, nil
	}
	obj, err := s.st.Engine.Generate(cache.Key(page), s.st.DB.LSN())
	if err != nil {
		return nil, fmt.Errorf("shadow render %s: %w", page, err)
	}
	s.rendered[page] = obj
	return obj, nil
}

// replay feeds a shadow that has rendered nothing yet the plant's
// successful commits, in order. The shadow's LSNs must follow the master's
// exactly.
func (s *shadow) replay(feed []op, recs []commitRec) error {
	for _, r := range recs {
		if r.lsn == 0 {
			continue
		}
		tx, err := apply(s.st, feed[r.op])
		if err != nil {
			return fmt.Errorf("shadow replay op %d: %w", r.op, err)
		}
		if tx.LSN != r.lsn {
			return fmt.Errorf("shadow replay op %d: lsn %d, master committed %d", r.op, tx.LSN, r.lsn)
		}
	}
	return nil
}

// expect is the shadow's render of one page at the seed state: what every
// read before the first commit must return.
type expect struct {
	size    int
	version int64
	etag    string // empty: no reader requests the page
	hash    uint64
}

// expected holds the seed-state render of every page a reader requests,
// by page index.
type expected []expect

// expectations renders, on the shadow at the seed state, every page of the
// day-one sequences of trs.
func expectations(s *shadow, pages []string, trs ...*traffic) (expected, error) {
	want := make(expected, len(pages))
	for _, tr := range trs {
		for _, seq := range tr.days[0] {
			for _, rq := range seq {
				if want[rq.page].etag != "" {
					continue
				}
				obj, err := s.render(pages[rq.page])
				if err != nil {
					return nil, err
				}
				want[rq.page] = expect{len(obj.Value), obj.Version, httpserver.ETag(obj), bodyHash(obj.Value)}
			}
		}
	}
	return want, nil
}

// body compares a whole served body of page idx with the shadow render.
func (w expected) body(idx int32, path string, body []byte) error {
	if e := w[idx]; e.etag == "" || len(body) != e.size || bodyHash(body) != e.hash {
		return fmt.Errorf("%s: served body differs from the shadow render", path)
	}
	return nil
}

// checkCoherent requires every page on every node to equal the shadow's
// render and to carry no version past the master's LSN: no page is
// incoherent after convergence.
func checkCoherent(s *shadow, p *plant) error {
	last := p.d.Master.LSN()
	var bad []string
	for _, page := range p.pages {
		want, err := s.render(page)
		if err != nil {
			return err
		}
		for i, c := range p.caches {
			got, ok := c.Peek(cache.Key(page))
			switch {
			case !ok:
				bad = append(bad, fmt.Sprintf("%s missing on %s", page, p.nodes[i].Name()))
			case !bytes.Equal(got.Value, want.Value) || got.ContentType != want.ContentType:
				bad = append(bad, fmt.Sprintf("%s on %s differs from the shadow render", page, p.nodes[i].Name()))
			case got.Version > last:
				bad = append(bad, fmt.Sprintf("%s on %s at version %d past master lsn %d", page, p.nodes[i].Name(), got.Version, last))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d incoherent page copies, first: %s", len(bad), bad[0])
	}
	return nil
}

var medalRow = regexp.MustCompile(`<tr><td>([^<]+)</td><td>(\d+)</td><td>(\d+)</td><td>(\d+)</td></tr>`)

// checkModel compares the benchmark's model of the commits with the pages
// on every node: the medal table, every country page, the current home
// page's ticker, and each result's event page.
func checkModel(m *model, st *site.Site, p *plant) error {
	var errs []error
	for i, c := range p.caches {
		node := p.nodes[i].Name()
		get := func(page string) string {
			obj, ok := c.Peek(cache.Key(page))
			if !ok {
				errs = append(errs, fmt.Errorf("%s missing on %s", page, node))
				return ""
			}
			return string(obj.Value)
		}
		for _, lang := range st.Spec.Languages {
			page := "/" + lang + "/medals"
			rows := medalRow.FindAllStringSubmatch(get(page), -1)
			if len(rows) != len(m.medals) {
				errs = append(errs, fmt.Errorf("%s on %s lists %d countries, model has %d", page, node, len(rows), len(m.medals)))
			}
			for _, row := range rows {
				want, ok := m.medals[row[1]]
				if !ok || row[2] != strconv.Itoa(want.g) || row[3] != strconv.Itoa(want.s) || row[4] != strconv.Itoa(want.b) {
					errs = append(errs, fmt.Errorf("%s on %s: %s %s/%s/%s, model %+v", page, node, row[1], row[2], row[3], row[4], want))
				}
			}
			for _, cc := range st.CountryCodes {
				page := "/" + lang + "/countries/" + cc
				want := "<p>No medals yet.</p>"
				if t, ok := m.medals[cc]; ok {
					want = fmt.Sprintf("<p>Gold %d, Silver %d, Bronze %d</p>", t.g, t.s, t.b)
				}
				if !strings.Contains(get(page), want) {
					errs = append(errs, fmt.Errorf("%s on %s lacks %q", page, node, want))
				}
			}
			page = fmt.Sprintf("/%s/home/day%02d", lang, m.day)
			var ticker strings.Builder
			ticker.WriteString("<h2>Recent results</h2><ul>")
			for _, item := range m.ticker[m.day] {
				ticker.WriteString("<li>" + item + "</li>")
			}
			ticker.WriteString("</ul><h2>Medal standings</h2>")
			if !strings.Contains(get(page), ticker.String()) {
				errs = append(errs, fmt.Errorf("%s on %s: ticker differs from the model's %d entries", page, node, len(m.ticker[m.day])))
			}
			for evIdx, r := range m.results {
				ev := st.Events[evIdx]
				page := fmt.Sprintf("/%s/sports/%s/%s", lang, ev.Sport, ev.Key)
				body := get(page)
				for _, want := range []string{
					fmt.Sprintf(">%s</a></td><td>%s</td></tr>", r.gold, m.country(r.gold)),
					fmt.Sprintf("<td>Silver</td><td>%s</td><td>%s</td>", r.silver, m.country(r.silver)),
					fmt.Sprintf("<td>Bronze</td><td>%s</td><td>%s</td>", r.bronze, m.country(r.bronze)),
					"Winning score: " + r.score,
				} {
					if !strings.Contains(body, want) {
						errs = append(errs, fmt.Errorf("%s on %s lacks %q", page, node, want))
					}
				}
			}
		}
		if len(errs) > 0 {
			break
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("model check: %d mismatches, first: %w", len(errs), errs[0])
	}
	return nil
}
