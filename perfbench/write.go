package main

import (
	"fmt"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/site"
)

// pollEvery is how often the writer reads the complexes' propagated LSNs;
// it bounds the resolution of every freshness figure.
const pollEvery = 100 * time.Microsecond

// commitRec is one committed op and what the writer measured for it.
type commitRec struct {
	op     int // index into the feed
	lsn    int64
	start  time.Time
	call   time.Duration // the write-side call itself
	repl   time.Duration // until every replica applied the LSN; 0 until then
	fresh  time.Duration // until every complex propagated the LSN; 0 until then
	failed bool
}

// writer commits the feed at the master and measures, for each commit, the
// time until every complex's trigger monitor has propagated its LSN. It is
// one goroutine: it polls between commits, so the write side adds a single
// load thread.
type writer struct {
	p        *plant
	st       *site.Site
	feed     []op
	model    *model
	next     int // next feed op to commit
	recs     []commitRec
	pending  []int // recs not yet fresh, in LSN order
	failed   int64
	firstErr error
}

func newWriter(p *plant, feed []op) *writer {
	st := p.d.MasterSite
	return &writer{p: p, st: st, feed: feed, model: newModel(st.AthleteCountry)}
}

func (w *writer) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// commit applies the next feed op.
func (w *writer) commit() {
	k := w.next
	w.next++
	o := w.feed[k]
	start := time.Now()
	tx, err := apply(w.st, o)
	call := time.Since(start)
	if err != nil || tx.LSN == 0 {
		w.recs = append(w.recs, commitRec{op: k, start: start, call: call, failed: true})
		w.fail(fmt.Errorf("commit op %d: %v (lsn %d)", k, err, tx.LSN))
		return
	}
	w.model.observe(w.st, o)
	if o.kind == opDay {
		w.p.day.Store(int32(o.day))
	}
	w.recs = append(w.recs, commitRec{op: k, lsn: tx.LSN, start: start, call: call})
	w.pending = append(w.pending, len(w.recs)-1)
}

// poll marks every pending commit the plant has replicated or propagated.
// A propagated commit is confirmed by reading its affected page's version
// from every node cache; a commit not fresh within the paper's 60 s fails.
func (w *writer) poll() {
	if len(w.pending) == 0 {
		return
	}
	now := time.Now()
	replicated, fresh := w.p.replicatedLSN(), w.p.freshLSN()
	for _, i := range w.pending {
		if r := &w.recs[i]; r.repl == 0 && r.lsn <= replicated {
			r.repl = now.Sub(r.start)
		}
	}
	done := 0
	for _, i := range w.pending {
		r := &w.recs[i]
		if r.lsn > fresh {
			if now.Sub(r.start) > freshnessSLO {
				r.failed = true
				w.fail(fmt.Errorf("op %d (lsn %d) not fresh within %v", r.op, r.lsn, freshnessSLO))
				done++
				continue
			}
			break
		}
		r.fresh = now.Sub(r.start)
		if r.repl == 0 {
			r.repl = r.fresh
		}
		done++
		w.confirm(r)
	}
	w.pending = w.pending[done:]
}

// confirm reads the commit's affected page from every node cache: each
// copy must carry a version at or past the commit's LSN.
func (w *writer) confirm(r *commitRec) {
	page := affectedPage(w.st, w.feed[r.op])
	for i, c := range w.p.caches {
		obj, ok := c.Peek(cache.Key(page))
		if !ok || obj.Version < r.lsn {
			v := int64(-1)
			if ok {
				v = obj.Version
			}
			r.failed = true
			w.fail(fmt.Errorf("%s on %s at version %d after lsn %d was propagated", page, w.p.nodes[i].Name(), v, r.lsn))
			return
		}
	}
}

// drain polls until every pending commit is fresh or has failed.
func (w *writer) drain() {
	for len(w.pending) > 0 {
		time.Sleep(pollEvery)
		w.poll()
	}
}

// paced commits n ops, one every interval on a fixed schedule, and waits
// until all are fresh. It returns the records of those commits.
func (w *writer) paced(n int, interval time.Duration) []commitRec {
	first := len(w.recs)
	start := time.Now()
	for k := 0; k < n && w.next < len(w.feed); {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			w.poll()
			time.Sleep(min(wait, pollEvery))
			continue
		}
		w.commit()
		k++
	}
	w.drain()
	return w.recs[first:]
}

// backlog commits the rest of the feed back to back and waits until all of
// it is fresh. It returns those commits' records and the time from the
// first commit until the last was fresh everywhere.
func (w *writer) backlog() ([]commitRec, time.Duration) {
	first := len(w.recs)
	start := time.Now()
	for w.next < len(w.feed) {
		w.commit()
	}
	w.poll()
	w.drain()
	return w.recs[first:], time.Since(start)
}
