package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// socketServers gives each client connection its own loopback listener,
// served by one node's own HTTP handler, nodes taken in turn per
// connection the way the Network Dispatcher forwards connections.
type socketServers struct {
	servers []*http.Server
	addrs   []string
	wg      sync.WaitGroup
}

func startSocketServers(p *plant, conns int) (*socketServers, error) {
	s := &socketServers{}
	for i := 0; i < conns; i++ {
		h, err := p.handler(i)
		if err != nil {
			s.stop()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("listen: %w", err)
		}
		srv := &http.Server{Handler: h, ReadHeaderTimeout: freshnessSLO}
		s.servers = append(s.servers, srv)
		s.addrs = append(s.addrs, ln.Addr().String())
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = srv.Serve(ln) // returns ErrServerClosed on stop
		}()
	}
	return s, nil
}

// stop closes every listener and connection and waits for the servers.
func (s *socketServers) stop() {
	for _, srv := range s.servers {
		_ = srv.Close() // Close errors only repeat listener errors
	}
	s.wg.Wait()
}

// httpClient is a minimal keep-alive HTTP/1.1 client on one connection. It
// reuses its buffers from request to request, so the client's share of the
// shared CPUs stays small and constant.
type httpClient struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	body []byte
	// Response fields of the last Do.
	status int
	xcache []byte
	etag   []byte
}

func dialClient(addr string) (*httpClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	return &httpClient{conn: conn, r: bufio.NewReaderSize(conn, 64<<10),
		w: bufio.NewWriterSize(conn, 4<<10), body: make([]byte, 0, 64<<10)}, nil
}

func (c *httpClient) Close() { _ = c.conn.Close() }

var errMalformed = errors.New("malformed HTTP response")

// Do sends GET path and reads the whole response into c.body.
func (c *httpClient) Do(path string) error {
	c.w.WriteString("GET ")
	c.w.WriteString(path)
	c.w.WriteString(" HTTP/1.1\r\nHost: bench\r\n\r\n")
	if err := c.w.Flush(); err != nil {
		return err
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return errMalformed
	}
	c.status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return errMalformed
	}
	c.xcache, c.etag = c.xcache[:0], c.etag[:0]
	length, chunked := -1, false
	for {
		line, err = c.r.ReadSlice('\n')
		if err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return errMalformed
		}
		name, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(val)); err != nil {
				return errMalformed
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		case bytes.EqualFold(name, []byte("X-Cache")):
			c.xcache = append(c.xcache, val...)
		case bytes.EqualFold(name, []byte("Etag")):
			c.etag = append(c.etag, val...)
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		return c.readChunked()
	case length >= 0:
		return c.readN(length)
	default:
		return errMalformed
	}
}

func (c *httpClient) readN(n int) error {
	start := len(c.body)
	if cap(c.body)-start < n {
		grown := make([]byte, start, start+n)
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:start+n]
	_, err := io.ReadFull(c.r, c.body[start:])
	return err
}

func (c *httpClient) readChunked() error {
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		n, err := strconv.ParseInt(string(line), 16, 32)
		if err != nil {
			return errMalformed
		}
		if n > 0 {
			if err := c.readN(int(n)); err != nil {
				return err
			}
		}
		if _, err := c.r.Discard(2); err != nil { // CRLF after the chunk data
			return err
		}
		if n == 0 {
			return nil
		}
	}
}

// bodyHash is FNV-1a over b, so a shadow render is kept as eight bytes.
func bodyHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// reader is what one reader goroutine (socket or in-process) saw in one
// round.
type reader struct {
	lat      latHist
	reads    int64
	failed   int64
	firstErr error
}

func (r *reader) observe(d time.Duration) {
	r.lat.Observe(d)
	r.reads++
}

func (r *reader) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// window is what a set of readers saw over one or more rounds, reduced to
// the figures the benchmark reports: every read's latency, the reads and
// failures, the rounds' summed wall time and the heap allocations made
// meanwhile. Rates and percentiles are read over the whole window, so
// every stall inside it counts.
type window struct {
	lat           latHist
	reads, failed int64
	errs          []error // each failing reader's first error
	elapsed       time.Duration
	mallocs       uint64 // heap allocations during the rounds, all goroutines
}

// add folds o's rounds into w.
func (w *window) add(o *window) {
	w.lat.Merge(&o.lat)
	w.reads += o.reads
	w.failed += o.failed
	w.errs = append(w.errs, o.errs...)
	w.elapsed += o.elapsed
	w.mallocs += o.mallocs
}

// rps is the reads completed per second of the window's wall time.
func (w *window) rps() float64 {
	if w.elapsed <= 0 {
		return 0
	}
	return float64(w.reads) / w.elapsed.Seconds()
}

// latency is the q-quantile of every read's latency in the window.
func (w *window) latency(q float64) time.Duration { return w.lat.Quantile(q) }

// closedLoop runs body on n goroutines, each with its own reader, until
// stop reads true, waits for them, and reduces what they saw to a window.
func closedLoop(n int, stop func() bool, body func(i int, res *reader, stop func() bool)) *window {
	readers := make([]*reader, n)
	for i := range readers {
		readers[i] = &reader{}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	runAll(n, func(i int) { body(i, readers[i], stop) })
	w := &window{elapsed: time.Since(start)}
	runtime.ReadMemStats(&m1)
	w.mallocs = m1.Mallocs - m0.Mallocs
	for _, r := range readers {
		w.lat.Merge(&r.lat)
		w.reads += r.reads
		w.failed += r.failed
		if r.firstErr != nil {
			w.errs = append(w.errs, r.firstErr)
		}
	}
	return w
}

// after returns a stop function that reads true once d has passed.
func after(d time.Duration) func() bool {
	deadline := time.Now().Add(d)
	return func() bool { return !time.Now().Before(deadline) }
}

// socketRound is how long one set of connections lives. Each round dials
// afresh, so how the runtime happened to place one set of client and
// server goroutines does not decide a whole run.
const socketRound = 250 * time.Millisecond

// socketRig drives one keep-alive connection per reader of tr, one request
// at a time each, nodes taken in turn per connection, over listeners that
// live as long as the rig.
type socketRig struct {
	p       *plant
	tr      *traffic
	want    expected
	servers *socketServers
	next    []int // each connection's place in its sequence
}

func newSocketRig(p *plant, tr *traffic, want expected) (*socketRig, error) {
	servers, err := startSocketServers(p, tr.readers())
	if err != nil {
		return nil, err
	}
	return &socketRig{p: p, tr: tr, want: want, servers: servers, next: make([]int, tr.readers())}, nil
}

func (s *socketRig) stop() { s.servers.stop() }

// round dials one connection per reader and runs body on each until stop
// reads true.
func (s *socketRig) round(stop func() bool, body func(i int, c *httpClient, res *reader, stop func() bool)) (*window, error) {
	clients := make([]*httpClient, s.tr.readers())
	for i := range clients {
		c, err := dialClient(s.servers.addrs[i])
		if err != nil {
			return nil, err
		}
		defer c.Close()
		clients[i] = c
	}
	return closedLoop(len(clients), stop, func(i int, res *reader, stop func() bool) {
		body(i, clients[i], res, stop)
	}), nil
}

// get reads page idx on c: the response must be 200, X-Cache: hit, and of
// the shadow render's size and entity tag. It reports false when the
// connection is unusable.
func (s *socketRig) get(c *httpClient, res *reader, idx int32) bool {
	path := s.p.pages[idx]
	t0 := time.Now()
	err := c.Do(path)
	res.observe(time.Since(t0))
	switch want := &s.want[idx]; {
	case err != nil:
		res.fail(fmt.Errorf("GET %s: %w", path, err))
		return false
	case c.status != http.StatusOK:
		res.fail(fmt.Errorf("GET %s: status %d", path, c.status))
	case string(c.xcache) != "hit":
		res.fail(fmt.Errorf("GET %s: X-Cache %q", path, c.xcache))
	case string(c.etag) != want.etag:
		res.fail(fmt.Errorf("GET %s: ETag %s, shadow render %s", path, c.etag, want.etag))
	case len(c.body) != want.size:
		res.fail(fmt.Errorf("GET %s: %d bytes, shadow render %d", path, len(c.body), want.size))
	}
	return true
}

// check reads every distinct page of each connection's day-one sequence
// once, before any commit, and also compares each whole body with the
// shadow render. It is not timed.
func (s *socketRig) check() (*window, error) {
	return s.round(func() bool { return false }, func(i int, c *httpClient, res *reader, _ func() bool) {
		for _, rq := range s.tr.distinct(i) {
			failed := res.failed
			if !s.get(c, res, rq.page) {
				return
			}
			if res.failed == failed {
				if err := s.want.body(rq.page, s.p.pages[rq.page], c.body); err != nil {
					res.fail(err)
				}
			}
		}
	})
}

// measure reads each connection's day-one sequence in a closed loop for
// d, in rounds of fresh connections.
func (s *socketRig) measure(d time.Duration) (*window, error) {
	measured := &window{}
	for left := d; left > 0; left -= socketRound {
		w, err := s.round(after(min(left, socketRound)), func(i int, c *httpClient, res *reader, stop func() bool) {
			seq := s.tr.seq(1, i)
			for ; !stop(); s.next[i]++ {
				if !s.get(c, res, seq[s.next[i]%len(seq)].page) {
					return
				}
			}
		})
		if err != nil {
			return nil, err
		}
		measured.add(w)
	}
	return measured, nil
}

func runAll(n int, f func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}
