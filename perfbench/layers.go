package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/httpserver"
	"dupserve/internal/odg"
	"dupserve/internal/stats"
	"dupserve/internal/trace"
)

// The benchmark's own timings of each layer's public functions, taken on a
// quiesced, primed plant. Calls are timed in batches, so the clock's own
// cost stays out of sub-microsecond figures; each figure is the median of
// the batches' per-call means.
const (
	layerBatch   = 256
	layerBatches = 64
)

func timeBatches(f func(k int)) float64 {
	per := make([]float64, layerBatches)
	for b := range per {
		start := time.Now()
		for k := 0; k < layerBatch; k++ {
			f(k)
		}
		per[b] = us(time.Since(start)) / layerBatch
	}
	return median(per)
}

// discardWriter is a reused http.ResponseWriter that drops the body.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// readLayers times the read path layer by layer on a sample of primed pages
// and returns each layer's self time: its median less the next inner
// layer's.
func readLayers(p *plant, seed int64, out map[string]float64) error {
	tr, err := makeTraffic(p, seed, streamLayers, 1, 1)
	if err != nil {
		return err
	}
	seq := tr.seq(1, 0)[:layerBatch]
	cx := p.d.Complexes()[0]
	node := cx.Cluster.Nodes()[0]
	srv, ok := node.Server().(*httpserver.Server)
	if !ok {
		return fmt.Errorf("node %s is not served by an httpserver.Server", node.Name())
	}
	c := srv.Cache()
	reqs := make([]*http.Request, len(seq))
	for k, rq := range seq {
		r, err := http.NewRequest(http.MethodGet, "http://bench"+p.pages[rq.page], nil)
		if err != nil {
			return err
		}
		reqs[k] = r
	}
	var failed error
	check := func(path string, outcome httpserver.Outcome, err error) {
		if (err != nil || outcome != httpserver.OutcomeHit) && failed == nil {
			failed = fmt.Errorf("layer timing: %s read as %v (%v)", path, outcome, err)
		}
	}
	routingT := timeBatches(func(k int) {
		_, o, _, err := p.d.Serve(regions[seq[k].region], p.pages[seq[k].page])
		check(p.pages[seq[k].page], o, err)
	})
	dispatchT := timeBatches(func(k int) {
		_, o, err := cx.Cluster.Dispatcher.Serve(p.pages[seq[k].page])
		check(p.pages[seq[k].page], o, err)
	})
	clusterT := timeBatches(func(k int) {
		_, o, err := node.Serve(p.pages[seq[k].page])
		check(p.pages[seq[k].page], o, err)
	})
	httpT := timeBatches(func(k int) {
		_, o, err := srv.Serve(p.pages[seq[k].page])
		check(p.pages[seq[k].page], o, err)
	})
	cacheT := timeBatches(func(k int) {
		if _, ok := c.Get(cache.Key(p.pages[seq[k].page])); !ok {
			check(p.pages[seq[k].page], httpserver.OutcomeMiss, nil)
		}
	})
	w := &discardWriter{h: http.Header{}}
	serveHTTPT := timeBatches(func(k int) {
		w.status = http.StatusOK
		srv.ServeHTTP(w, reqs[k])
		if w.status != http.StatusOK {
			check(reqs[k].URL.Path, httpserver.OutcomeError, fmt.Errorf("status %d", w.status))
		}
	})
	out["routing.request_us"] = routingT - dispatchT
	out["dispatch.serve_us"] = dispatchT - clusterT
	out["cluster.serve_us"] = clusterT - httpT
	out["httpserver.serve_us"] = httpT - cacheT
	out["cache.get_us"] = cacheT
	out["httpserver.servehttp_us"] = serveHTTPT
	return failed
}

// writeLayers times the write path's inner calls on a quiesced plant, for
// the results the feed committed: the dependence-graph walk of each
// result's changed vertices, the render of each affected page, and one
// broadcast of a page's current copy to its complex's caches.
func writeLayers(p *plant, w *writer, out map[string]float64) error {
	cx := p.d.Complexes()[0]
	isPage := make(map[string]bool, len(p.pages))
	for _, pg := range p.pages {
		isPage[pg] = true
	}
	var affectedT, generateT []float64
	var pages []string
	for _, r := range w.recs {
		if r.lsn == 0 || w.feed[r.op].kind != opResult || len(affectedT) == 32 {
			continue
		}
		log := cx.Replica.LogSince(r.lsn - 1)
		if len(log) == 0 || log[0].LSN != r.lsn {
			return fmt.Errorf("layer timing: lsn %d not in %s's retained log", r.lsn, cx.Name)
		}
		var changed []odg.NodeID
		for _, ch := range log[0].Changes {
			changed = append(changed, cx.Site.Indexer(ch)...)
		}
		var affected []odg.NodeID
		start := time.Now()
		for k := 0; k < 16; k++ {
			affected = cx.Graph.Affected(changed...)
		}
		affectedT = append(affectedT, us(time.Since(start))/16)
		for _, id := range affected {
			if isPage[string(id)] {
				pages = append(pages, string(id))
			}
		}
	}
	if len(pages) == 0 {
		return fmt.Errorf("layer timing: no result committed, nothing to time on the write path")
	}
	version := cx.Replica.LSN()
	for k, pg := range pages {
		if k == 512 {
			break
		}
		start := time.Now()
		if _, err := cx.Site.Engine.Generate(cache.Key(pg), version); err != nil {
			return fmt.Errorf("layer timing: generate %s: %w", pg, err)
		}
		generateT = append(generateT, us(time.Since(start)))
	}
	obj, ok := p.caches[0].Peek(cache.Key(pages[0]))
	if !ok {
		return fmt.Errorf("layer timing: %s not cached", pages[0])
	}
	out["odg.affected_us"] = median(affectedT)
	out["fragment.generate_us"] = median(generateT)
	out["cache.broadcast_us"] = timeBatches(func(int) { cx.Cluster.Caches.BroadcastPut(obj.Copy()) })
	return nil
}

// counters is a snapshot of the plant's own counters and the runtime's,
// taken before and after a workload to report deltas.
type counters struct {
	mem              runtime.MemStats
	hits, misses     int64
	renders, reuses  int64
	pagesUpdated     int64
	coalesced, retry int64
}

func snapshot(p *plant) counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	s := p.cacheStats()
	c.hits, c.misses = s.Hits, s.Misses
	for _, cx := range p.d.Complexes() {
		r, u := cx.Site.Engine.Accounting()
		c.renders += r
		c.reuses += u
		ms := cx.Monitor().Stats()
		c.pagesUpdated += ms.PagesUpdated
		c.coalesced += ms.Coalesced
		c.retry += cx.Cluster.Caches.PushStats().Retries
	}
	return c
}

// histSet is the bucket counts of a group of histograms that share bounds,
// summed: one stage across every complex.
type histSet struct {
	bounds []float64
	counts []int64
	sum    float64 // of the observations, from each histogram's mean
}

func merge(hs []*stats.Histogram) histSet {
	var m histSet
	for _, h := range hs {
		b, c := h.Buckets()
		if m.counts == nil {
			m.bounds, m.counts = b, make([]int64, len(c))
		}
		for i := range c {
			m.counts[i] += c[i]
		}
		m.sum += h.Mean() * float64(h.Count())
	}
	return m
}

// minus is the observations m holds that an earlier snapshot o did not.
func (m histSet) minus(o histSet) histSet {
	d := histSet{bounds: m.bounds, counts: make([]int64, len(m.counts)), sum: m.sum - o.sum}
	for i := range m.counts {
		d.counts[i] = m.counts[i] - o.counts[i]
	}
	return d
}

func (m histSet) n() int64 {
	var n int64
	for _, c := range m.counts {
		n += c
	}
	return n
}

func (m histSet) mean() float64 {
	if m.n() == 0 {
		return 0
	}
	return m.sum / float64(m.n())
}

// quantile interpolates within the containing bucket the way
// stats.Histogram.Quantile does.
func (m histSet) quantile(q float64) float64 {
	n := m.n()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum float64
	for i, c := range m.counts {
		if cum+float64(c) >= rank && c > 0 {
			if i >= len(m.bounds) {
				return m.bounds[len(m.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = m.bounds[i-1]
			}
			return lo + (rank-cum)/float64(c)*(m.bounds[i]-lo)
		}
		cum += float64(c)
	}
	return m.bounds[len(m.bounds)-1]
}

// traceSnap is a traced plant's propagation histograms at one moment; two
// of them bracket the paced phase, whose outside-timed freshness the
// program's own stages are held against.
type traceSnap struct {
	dup, render, push, total histSet
	batchWait, batchSize     histSet
}

func captureTrace(p *plant) traceSnap {
	var dup, render, push, total, wait, size []*stats.Histogram
	for _, cx := range p.d.Complexes() {
		dup = append(dup, cx.Tracer.StageHistogram(trace.StageDUP))
		render = append(render, cx.Tracer.StageHistogram(trace.StageRender))
		push = append(push, cx.Tracer.StageHistogram(trace.StagePush))
		total = append(total, cx.Tracer.TotalHistogram())
		wait = append(wait, cx.Monitor().BatchWait())
		size = append(size, cx.Monitor().BatchSizes())
	}
	return traceSnap{merge(dup), merge(render), merge(push), merge(total), merge(wait), merge(size)}
}

// traceLayers reads the program's own exported figures from a traced
// plant: the propagation stages and the trigger monitors' batching over
// the paced phase, and the serve stages from every complex's span
// collector over the run.
func traceLayers(p *plant, before, after traceSnap, out map[string]float64) {
	const msPerS = 1000
	out["odg.dup_ms"] = after.dup.minus(before.dup).quantile(0.5) * msPerS
	out["fragment.render_ms"] = after.render.minus(before.render).quantile(0.5) * msPerS
	out["cache.push_ms"] = after.push.minus(before.push).quantile(0.5) * msPerS
	out["trace.commit_to_push_ms"] = after.total.minus(before.total).quantile(0.5) * msPerS
	out["trigger.batch_wait_ms"] = after.batchWait.minus(before.batchWait).quantile(0.5) * msPerS
	out["trigger.batch_size"] = after.batchSize.minus(before.batchSize).mean()
	var route, lookup []float64
	for _, cx := range p.d.Complexes() {
		for _, s := range cx.Obs.Collector.Snapshot().Stages {
			switch s.Stage {
			case "route":
				route = append(route, s.MeanMS*msPerS)
			case "lookup":
				lookup = append(lookup, s.MeanMS*msPerS)
			}
		}
	}
	out["obs.route_us"] = median(route)
	out["obs.lookup_us"] = median(lookup)
}

// sortedNames returns m's keys in order.
func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
