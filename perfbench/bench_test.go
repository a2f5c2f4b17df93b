package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"dupserve/internal/cache"
)

// declaredNames reads the metric lists from BENCHMARK.json, so the runs
// below check that the benchmark prints exactly what it declares.
func declaredNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, m := range decl.EndToEnd {
		if units[m.Name] != m.Unit {
			t.Errorf("%s: declared unit %q, printed %q", m.Name, m.Unit, units[m.Name])
		}
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range decl.PerLayer {
		if units[m.Name] != m.Unit {
			t.Errorf("%s: declared unit %q, printed %q", m.Name, m.Unit, units[m.Name])
		}
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func requireMetrics(t *testing.T, rep *report, names []string) {
	t.Helper()
	if len(rep.Metrics) != len(names) {
		t.Errorf("printed %d metrics, declared %d", len(rep.Metrics), len(names))
	}
	for _, name := range names {
		if _, ok := rep.Metrics[name]; !ok {
			t.Errorf("metric %s not printed", name)
		}
	}
}

func TestShortWorkloads(t *testing.T) {
	endToEnd, _ := declaredNames(t)
	for w := range workloads {
		t.Run(w, func(t *testing.T) {
			rep, err := run(options{workload: w, seed: 7, seconds: 1, short: true}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct %v, attempted %d, failed %d", rep.Correct, rep.Attempted, rep.Failed)
			}
			requireMetrics(t, rep, endToEnd)
			for name, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

func TestShortTracedRunPrintsEveryLayer(t *testing.T) {
	_, perLayer := declaredNames(t)
	rep, err := run(options{workload: "peak_mix", seed: 7, seconds: 1, short: true, trace: true}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("correct %v, failed %d", rep.Correct, rep.Failed)
	}
	requireMetrics(t, rep, perLayer)
}

func TestFeedIsSeeded(t *testing.T) {
	p, _, err := setUp(shortSpec(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer p.stop()
	a, b, c := makeFeed(p.d.MasterSite, 3), makeFeed(p.d.MasterSite, 3), makeFeed(p.d.MasterSite, 4)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("feed lengths %d, %d", len(a), len(b))
	}
	same := len(a) == len(c)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between two feeds of one seed", i)
		}
		if same && a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 3 and 4 gave the same feed")
	}
}

// TestChecksCatchPlantedFaults plants one wrong page in a node cache and
// one wrong medal count in the model, and shows that each check fails.
func TestChecksCatchPlantedFaults(t *testing.T) {
	spec := shortSpec()
	p, _, err := setUp(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	defer p.stop()
	const page = "/en/athletes/a0001"
	idx := -1
	for i, pg := range p.pages {
		if pg == page {
			idx = i
		}
	}
	good, ok := p.caches[0].Peek(cache.Key(page))
	if idx < 0 || !ok {
		t.Fatalf("%s not primed", page)
	}
	bad := good.Copy()
	bad.Value = append(bytes.Clone(good.Value), "<!-- planted -->"...)

	// Socket reads: a wrong body on the connection's node fails the check
	// against the seed-state shadow.
	seed, err := newShadow(spec)
	if err != nil {
		t.Fatal(err)
	}
	tr := &traffic{days: [][][]request{{{{page: int32(idx)}}}}}
	want, err := expectations(seed, p.pages, tr)
	if err != nil {
		t.Fatal(err)
	}
	read := func() error {
		rig, err := newSocketRig(p, tr, want)
		if err != nil {
			t.Fatal(err)
		}
		defer rig.stop()
		checked, err := rig.check()
		if err != nil {
			t.Fatal(err)
		}
		measured, err := rig.measure(20 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if measured.reads == 0 {
			t.Fatal("no timed socket read")
		}
		return errors.Join(append(checked.errs, measured.errs...)...)
	}
	if err := read(); err != nil {
		t.Fatalf("clean plant: %v", err)
	}
	p.caches[0].Put(bad)
	if err := read(); err == nil || !strings.Contains(err.Error(), page) {
		t.Fatalf("planted page: socket check gave %v", err)
	}
	p.caches[0].Put(good.Copy())

	// After the whole feed: the coherence check and the model check.
	w := newWriter(p, makeFeed(p.d.MasterSite, 1))
	w.paced(5, time.Millisecond)
	w.backlog()
	if w.failed != 0 {
		t.Fatal(w.firstErr)
	}
	final, err := newShadow(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := final.replay(w.feed, w.recs); err != nil {
		t.Fatal(err)
	}
	if err := checkCoherent(final, p); err != nil {
		t.Fatalf("clean plant: %v", err)
	}
	if err := checkModel(w.model, w.st, p); err != nil {
		t.Fatalf("clean plant: %v", err)
	}

	cur, _ := p.caches[5].Peek(cache.Key(page))
	wrong := cur.Copy()
	wrong.Value = append(bytes.Clone(cur.Value), "<!-- planted -->"...)
	p.caches[5].Put(wrong)
	if err := checkCoherent(final, p); err == nil || !strings.Contains(err.Error(), page) {
		t.Fatalf("planted page: coherence check gave %v", err)
	}
	p.caches[5].Put(cur.Copy())

	if len(w.model.medals) == 0 {
		t.Fatal("the feed awarded no medals")
	}
	for _, tl := range w.model.medals {
		tl.g++
		break
	}
	if err := checkModel(w.model, w.st, p); err == nil {
		t.Fatal("wrong medal count: model check passed")
	}
}
