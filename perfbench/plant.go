package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/cluster"
	"dupserve/internal/deploy"
	"dupserve/internal/httpserver"
	"dupserve/internal/site"
)

// plant is one running deployment and the views of it the benchmark reads.
type plant struct {
	d      *deploy.Deployment
	pages  []string
	nodes  []*cluster.Node // every serving node, complex by complex
	caches []*cache.Cache  // every node cache, same order as nodes
	traced bool
	day    atomic.Int32 // the site's current day, as the writer last set it
}

// paperConfig is the NaganoConfig topology at paper scale with the modelled
// WAN delay removed, so the figures measure the program.
func paperConfig(spec site.Spec) deploy.Config {
	cfg := deploy.NaganoConfig(spec)
	for i := range cfg.Complexes {
		cfg.Complexes[i].ReplicationDelay = 0
	}
	return cfg
}

// freshnessSLO is the paper's bound: a commit is visible everywhere within
// 60 seconds.
const freshnessSLO = 60 * time.Second

// setUp builds, starts and primes a deployment, and checks that every node
// cache holds every page. It returns the plant and the time it took.
func setUp(spec site.Spec, traced bool) (*plant, time.Duration, error) {
	start := time.Now()
	var opts []deploy.Option
	if traced {
		opts = append(opts, deploy.WithTracing(freshnessSLO), deploy.WithObservability())
	}
	d, err := deploy.New(paperConfig(spec), opts...)
	if err != nil {
		return nil, 0, fmt.Errorf("deploy.New: %w", err)
	}
	if err := d.Start(context.Background()); err != nil {
		return nil, 0, fmt.Errorf("start: %w", err)
	}
	p := &plant{d: d, pages: d.MasterSite.Pages(), traced: traced}
	p.day.Store(int32(d.MasterSite.CurrentDay()))
	if err := d.Prime(freshnessSLO); err != nil {
		p.stop()
		return nil, 0, fmt.Errorf("prime: %w", err)
	}
	for _, cx := range d.Complexes() {
		for _, n := range cx.Cluster.Nodes() {
			c, ok := cx.Cluster.Caches.Get(n.Name())
			if !ok {
				p.stop()
				return nil, 0, fmt.Errorf("node %s has no cache", n.Name())
			}
			if c.Len() != len(p.pages) {
				p.stop()
				return nil, 0, fmt.Errorf("node %s holds %d of %d pages after prime", n.Name(), c.Len(), len(p.pages))
			}
			p.nodes = append(p.nodes, n)
			p.caches = append(p.caches, c)
		}
	}
	return p, time.Since(start), nil
}

func (p *plant) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), freshnessSLO)
	defer cancel()
	_ = p.d.Shutdown(ctx) // a drain error leaves nothing the benchmark reads
}

// handler returns node i's own HTTP handler.
func (p *plant) handler(i int) (*httpserver.Server, error) {
	n := p.nodes[i%len(p.nodes)]
	srv, ok := n.Server().(*httpserver.Server)
	if !ok {
		return nil, fmt.Errorf("node %s is not served by an httpserver.Server", n.Name())
	}
	return srv, nil
}

// freshLSN is the lowest LSN every complex's trigger monitor has propagated.
func (p *plant) freshLSN() int64 {
	low := int64(-1)
	for _, cx := range p.d.Complexes() {
		mon := cx.Monitor()
		if mon == nil {
			return 0
		}
		if l := mon.LastLSN(); low < 0 || l < low {
			low = l
		}
	}
	return low
}

// replicatedLSN is the lowest LSN every complex's replica has applied.
func (p *plant) replicatedLSN() int64 {
	low := int64(-1)
	for _, cx := range p.d.Complexes() {
		if l := cx.Replica.LSN(); low < 0 || l < low {
			low = l
		}
	}
	return low
}

// cacheStats sums the counters of every node cache.
func (p *plant) cacheStats() cache.Stats {
	var agg cache.Stats
	for _, cx := range p.d.Complexes() {
		s := cx.Cluster.Caches.AggregateStats()
		agg.Hits += s.Hits
		agg.Misses += s.Misses
	}
	return agg
}
