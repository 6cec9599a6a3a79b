package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// Operation kinds. lookup covers GET /modules/{id} and its /examples.
const (
	kindLookup      = "lookup"
	kindSearch      = "search"
	kindSubstitutes = "substitutes"
	kindCompose     = "compose"
	kindMatches     = "matches"
	kindGenerate    = "generate"
)

var opKinds = []string{kindLookup, kindSearch, kindSubstitutes, kindCompose, kindMatches, kindGenerate}

// op is one generated operation. Path is relative to a node's base URL.
type op struct {
	kind   string
	path   string
	module string
	cond   bool // browse: revalidate with an ETag seen earlier
	shard  int  // sharded: entry shard
}

// sample is one completed request.
type sample struct {
	kind   string
	ms     float64
	cpuMs  float64 // process CPU time during the request
	ok     bool
	status int
}

// client is one closed-loop caller: it sends its next request only when
// the previous answer is in.
type client struct {
	id  int
	hc  *http.Client
	tr  *tracer
	rng *rand.Rand
	seq int

	samples   []sample
	failed    int
	failures  []string
	redirects int

	etags   map[string]string // browse: last ETag seen per examples path
	drifted map[string]bool   // annotate: modules currently bound to their mutant
	matches []matchAnswer     // /matches answers in arrival order
}

type matchAnswer struct {
	at    time.Time
	state string
	bytes int
}

// noteMatches records a /matches answer's state key and size.
func (c *client) noteMatches(a answer) {
	if a.status != http.StatusOK {
		return
	}
	c.matches = append(c.matches, matchAnswer{at: time.Now(), state: stateOf(a.body), bytes: len(a.body)})
}

// stateOf reads the leading "state" field of a /matches body without
// decoding the matrix behind it.
func stateOf(body []byte) string {
	const key = `"state": "`
	head := body[:min(len(body), 256)]
	i := bytes.Index(head, []byte(key))
	if i < 0 {
		return ""
	}
	rest := head[i+len(key):]
	if j := bytes.IndexByte(rest, '"'); j >= 0 {
		return string(rest[:j])
	}
	return ""
}

// transport is the load's shared HTTP transport: at most two keep-alive
// connections per target (one per closed-loop client), with every dial
// counted.
func transport(dials *atomic.Int64) *http.Transport {
	d := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	return &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		MaxIdleConns:        16,
		DisableCompression:  true,
	}
}

func newClient(id int, seed int64, rt http.RoundTripper, tr *tracer) *client {
	c := &client{
		id: id, tr: tr, rng: rand.New(rand.NewSource(streamSeed(seed, id))),
		etags: map[string]string{}, drifted: map[string]bool{},
	}
	c.hc = &http.Client{
		Transport: rt,
		Timeout:   60 * time.Second,
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			c.redirects++
			if len(via) >= 5 {
				return fmt.Errorf("stopped after %d redirects", len(via))
			}
			return nil
		},
	}
	return c
}

// streamSeed derives client c's op-stream seed from the workload seed.
func streamSeed(seed int64, c int) int64 { return seed*1_000_003 + int64(c)*7_919 + 1 }

// answer is one HTTP response as the checks see it.
type answer struct {
	status int
	body   []byte
	header http.Header
}

// request issues one timed request, recording its sample; check decides
// whether the answer is right.
func (c *client) request(kind, method, url string, hdr map[string]string, check func(answer) error) answer {
	c.seq++
	rid := fmt.Sprintf("c%d-%d", c.id, c.seq)
	sp := c.tr.clientSpan(kind, rid)
	cpu0, start := processCPU(), time.Now()
	body, status, h, err := roundTrip(context.Background(), c.hc, method, url, func(r *http.Request) {
		r.Header.Set("X-Request-ID", rid)
		for k, v := range hdr {
			r.Header.Set(k, v)
		}
	})
	elapsed, cpu := time.Since(start), processCPU()-cpu0
	c.tr.end(sp)
	a := answer{status: status, body: body, header: h}
	if err == nil && check != nil {
		err = check(a)
	}
	c.samples = append(c.samples, sample{kind: kind, ms: ms(elapsed), cpuMs: ms(cpu), ok: err == nil, status: status})
	if err != nil {
		c.fail(fmt.Errorf("%s %s: %w", method, url, err))
	}
	return a
}

func (c *client) fail(err error) {
	c.failed++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, err.Error())
	}
}

// roundTrip performs one request and reads the whole body.
func roundTrip(ctx context.Context, hc *http.Client, method, url string, prep func(*http.Request)) ([]byte, int, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return nil, 0, nil, err
	}
	if prep != nil {
		prep(req)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		return nil, resp.StatusCode, resp.Header, err
	}
	return buf.Bytes(), resp.StatusCode, resp.Header, nil
}

// workload is one traffic mix over a world.
type workload interface {
	// setup wires the world's nodes, annotates the catalog, warms the
	// caches and records the answers the checks compare against.
	setup(w *world, seed int64, clients int) error
	// plan derives the workload's request pools from the universe; the
	// same universe and seed give the same pools.
	plan(w *world, seed int64, clients int)
	// next draws client c's next operation from its stream.
	next(rng *rand.Rand, c int) op
	// exec performs one operation for c, recording samples and failures.
	exec(w *world, c *client, o op)
	// finish runs the end-of-run checks, returning one error per wrong
	// answer.
	finish(w *world) []error
}

// heapSamples is how many times a run reads the live heap.
const heapSamples = 20

// runStats is one measured stretch of closed-loop load.
type runStats struct {
	elapsed time.Duration // wall time from the first request to the last answer
	cpu     time.Duration // process CPU time over the same stretch
	steal   float64       // host CPU steal share during the run
	heap    dist          // live heap as marked by the latest collection, MB
}

// runClosed drives every client for d. It reads the live heap at
// heapSamples-1 evenly spaced instants of the run.
func runClosed(w *world, wl workload, clients []*client, d time.Duration) runStats {
	var r runStats
	host, cpu := readCPU(), processCPU()
	start := time.Now()
	deadline := start.Add(d)
	sampled := make(chan struct{})
	go func() {
		// Every instant lies before the deadline, so this ends before
		// the clients do.
		defer close(sampled)
		for i := 1; i < heapSamples; i++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(i) / heapSamples)))
			r.heap = append(r.heap, markedHeapMB())
		}
	}()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				wl.exec(w, c, wl.next(c.rng, c.id))
			}
		}(c)
	}
	wg.Wait()
	r.elapsed, r.cpu = time.Since(start), processCPU()-cpu
	<-sampled
	r.steal = readCPU().stealSince(host)
	return r
}

// liveHeapMB forces two collections, the second to drop what sync.Pool
// victim caches kept through the first, and reads the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	return markedHeapMB()
}

// markedHeapMB reads the live heap marked by the most recent collection.
func markedHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
