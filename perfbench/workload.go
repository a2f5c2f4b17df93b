package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dupserve/internal/site"
)

// shortSpec is a small site with every page family, for the short mode.
func shortSpec() site.Spec {
	return site.Spec{
		Sports: 3, EventsPerSport: 4, Athletes: 120, Countries: 8,
		NewsStories: 10, Days: 4, EventsPerAthlete: 1,
		Languages:          []string{"en", "ja"},
		ExtraNewsLanguages: []string{"fr"},
		Syndication:        []string{"cbs"},
	}
}

// paceInterval spaces the paced phase's commits: 25 transactions a second,
// well below what the plant drains, so each commit's freshness is its own
// propagation and not a queue.
const paceInterval = 40 * time.Millisecond

// pass is one plant driven through one workload, with what was measured
// and what the checks found.
type pass struct {
	p *plant
	w *writer

	socket    *window // socket readers' measured window
	reads     *window // in-process readers' measured window
	mainReads *window // the window allocations per read are taken over
	windows   []*window
	paced     []commitRec
	backlog   []commitRec
	drain     time.Duration
	memMB     float64
	// traced plants only: the propagation histograms around the paced phase
	pacedFrom, pacedTo traceSnap

	attempted, failed int64
	opErrs            []error
	checkErrs         []error
	layers            map[string]float64
}

// schedule gives a workload's timed phases as shares of --seconds; the
// backlog that follows is the rest of the feed, a fixed amount of work.
type schedule struct {
	socket, serve, paced float64
	peak                 bool // in-process readers run through the write phases
}

var schedules = map[string]schedule{
	"read_socket":   {socket: 0.5, serve: 0.3, paced: 0.2},
	"update_stream": {socket: 0.3, serve: 0.3, paced: 0.4},
	"peak_mix":      {socket: 0.3, paced: 0.7, peak: true},
}

func secs(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

// runPass drives p through the workload's schedule, checks every output,
// runs layers (when set) on the quiesced plant, and stops p.
func runPass(o options, spec site.Spec, p *plant, layers func(*pass) error) (*pass, error) {
	defer p.stop()
	ps := &pass{p: p, w: newWriter(p, makeFeed(p.d.MasterSite, o.seed)), layers: map[string]float64{},
		socket: &window{}, reads: &window{}}
	sch := schedules[o.workload]
	nproc := runtime.NumCPU()
	days := 1
	if sch.peak {
		days = spec.Days // in-process readers follow the feed's day rollovers
	}
	socketTr, err := makeTraffic(p, o.seed, streamSocket, nproc, 1)
	if err != nil {
		return nil, err
	}
	serveTr, err := makeTraffic(p, o.seed, streamServe, max(1, nproc-1), days)
	if err != nil {
		return nil, err
	}
	// Every page a reader may request before the first commit, rendered on
	// a shadow at the seed state; the shadow itself is garbage before any
	// timed phase.
	sh, err := newShadow(spec)
	if err != nil {
		return nil, err
	}
	want, err := expectations(sh, p.pages, socketTr, serveTr)
	if err != nil {
		return nil, err
	}
	ps.windows = append(ps.windows, checkServe(p, serveTr, want))

	before := snapshot(p)
	if err := ps.read(o, socketTr, serveTr, want); err != nil {
		return nil, err
	}
	nPaced := max(1, int(secs(sch.paced*o.seconds)/paceInterval))
	runtime.GC()
	if p.traced {
		ps.pacedFrom = captureTrace(p)
	}
	if !sch.peak {
		ps.paced = ps.w.paced(nPaced, paceInterval)
		if p.traced {
			ps.pacedTo = captureTrace(p)
		}
		runtime.GC()
		ps.backlog, ps.drain = ps.w.backlog()
	} else {
		ps.reads = alongside(p, serveTr, func() { ps.paced = ps.w.paced(nPaced, paceInterval) })
		if p.traced {
			ps.pacedTo = captureTrace(p)
		}
		runtime.GC()
		ps.windows = append(ps.windows, ps.reads,
			alongside(p, serveTr, func() { ps.backlog, ps.drain = ps.w.backlog() }))
	}
	end := snapshot(p)
	// The live heap holds the plant and the benchmark's fixed-size state
	// (feed, model, commit records, reduced windows); the request sequences
	// and the expected renders are dropped first.
	socketTr, serveTr, want = nil, nil, nil
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	ps.memMB = float64(mem.HeapAlloc) / (1 << 20)

	ps.mainReads = ps.reads
	if o.workload == "read_socket" {
		ps.mainReads = ps.socket
	}
	if !p.traced {
		ps.countLayers(before, end)
	}

	for _, w := range ps.windows {
		ps.attempted += w.reads
		ps.failed += w.failed
		ps.opErrs = append(ps.opErrs, w.errs...)
	}
	ps.attempted += int64(len(ps.w.recs))
	ps.failed += ps.w.failed
	if ps.w.firstErr != nil {
		ps.opErrs = append(ps.opErrs, ps.w.firstErr)
	}

	ps.check(spec)
	if layers != nil {
		if err := layers(ps); err != nil {
			ps.checkErrs = append(ps.checkErrs, err)
		}
	}
	return ps, nil
}

// read runs the workload's read phases, before any commit: the socket
// check, and then socket rounds and in-process rounds taken in turn, so
// both kinds of read sample the whole read period.
func (ps *pass) read(o options, socketTr, serveTr *traffic, want expected) error {
	sch := schedules[o.workload]
	socket, serve := secs(sch.socket*o.seconds), secs(sch.serve*o.seconds)
	var rig *socketRig
	if socket > 0 {
		var err error
		if rig, err = newSocketRig(ps.p, socketTr, want); err != nil {
			return err
		}
		defer rig.stop()
		checked, err := rig.check()
		if err != nil {
			return err
		}
		ps.windows = append(ps.windows, checked, ps.socket)
	}
	if serve > 0 {
		ps.windows = append(ps.windows, ps.reads)
	}
	turns := max(1, int((max(socket, serve)+socketRound-1)/socketRound))
	// The measured reads start from a collected heap, so garbage left by
	// set-up or the checks is not collected inside them.
	runtime.GC()
	for k := 0; k < turns; k++ {
		if rig != nil {
			w, err := rig.measure(socket / time.Duration(turns))
			if err != nil {
				return err
			}
			ps.socket.add(w)
		}
		if serve > 0 {
			ps.reads.add(runServe(ps.p, serveTr, after(serve/time.Duration(turns)), want))
		}
	}
	return nil
}

// readRound is how long one set of in-process reader goroutines lives;
// each round starts afresh, so where the runtime happened to place one
// reader does not decide a whole run.
const readRound = 100 * time.Millisecond

// alongside runs write on its own goroutine while in-process readers, in
// rounds, read until it returns, and returns the readers' window.
func alongside(p *plant, tr *traffic, write func()) *window {
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		write()
		done.Store(true)
	}()
	w := &window{}
	for !done.Load() {
		roundEnd := after(readRound)
		w.add(runServe(p, tr, func() bool { return done.Load() || roundEnd() }, nil))
	}
	wg.Wait()
	return w
}

// check runs the checks made after the workload: with a fresh shadow fed
// the same calls, every page on every node, and the model's tallies,
// tickers and results. (Reads are checked as they are made.)
func (ps *pass) check(spec site.Spec) {
	sh, err := newShadow(spec)
	if err != nil {
		ps.checkErrs = append(ps.checkErrs, err)
		return
	}
	if err := sh.replay(ps.w.feed, ps.w.recs); err != nil {
		ps.checkErrs = append(ps.checkErrs, err)
		return
	}
	if err := checkCoherent(sh, ps.p); err != nil {
		ps.checkErrs = append(ps.checkErrs, err)
	}
	if err := checkModel(ps.w.model, ps.w.st, ps.p); err != nil {
		ps.checkErrs = append(ps.checkErrs, err)
	}
}

// endToEnd writes the pass's end-to-end metrics (all but setup_s).
func (ps *pass) endToEnd(out map[string]float64) {
	out["mem_mb"] = ps.memMB
	out["socket_rps"] = ps.socket.rps()
	out["socket_p50_us"] = us(ps.socket.latency(0.50))
	out["socket_p99_us"] = us(ps.socket.latency(0.99))
	out["read_rps"] = ps.reads.rps()
	out["read_p99_us"] = us(ps.reads.latency(0.99))
	fresh := make([]float64, 0, len(ps.paced))
	for _, r := range ps.paced {
		if !r.failed {
			fresh = append(fresh, ms(r.fresh))
		}
	}
	out["fresh_p50_ms"] = quantile(fresh, 0.50)
	out["fresh_p90_ms"] = quantile(fresh, 0.90)
	out["drain_tps"] = float64(len(ps.backlog)) / ps.drain.Seconds()
}

// countLayers writes the per-layer figures that come from counters and the
// writer's records.
func (ps *pass) countLayers(before, after counters) {
	l := ps.layers
	commits := float64(len(ps.w.recs))
	if reads := ps.mainReads.reads; reads > 0 {
		l["runtime.allocs_per_read"] = float64(ps.mainReads.mallocs) / float64(reads)
	}
	l["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	l["runtime.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	l["cache.hits"] = float64(after.hits - before.hits)
	l["cache.misses"] = float64(after.misses - before.misses)
	l["fragment.renders"] = float64(after.renders - before.renders)
	l["fragment.reuses"] = float64(after.reuses - before.reuses)
	l["core.pages_updated"] = float64(after.pagesUpdated-before.pagesUpdated) / commits
	l["trigger.coalesced"] = float64(after.coalesced - before.coalesced)
	l["cache.push_retries"] = float64(after.retry - before.retry)
	var calls, repl []float64
	for _, r := range ps.w.recs {
		calls = append(calls, us(r.call))
	}
	for _, r := range ps.paced {
		if !r.failed {
			repl = append(repl, ms(r.repl))
		}
	}
	l["db.commit_us"] = median(calls)
	l["db.replicate_ms"] = median(repl)
}
