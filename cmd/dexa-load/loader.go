package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	neturl "net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dexa/internal/telemetry"
)

// Config describes one load run. Targets are server base URLs (without
// the API prefix); module-scoped requests draw from the annotated part
// of the catalog discovered from the first healthy target.
type Config struct {
	Targets   []string
	APIPrefix string // defaults to "/api"
	Mode      string // "closed" or "open"
	Users     int
	Rate      float64 // open loop: requests per second
	Duration  time.Duration
	Requests  int // total budget; 0 = duration-bounded only
	Mix       map[string]int
	Seed      int64
	Timeout   time.Duration
}

// kinds are the request classes a mix may weight. Module-scoped kinds
// need at least one annotated module in the catalog; compose also needs
// module signatures, discovered alongside the catalog. generate is the
// write path (forced re-annotation through the store) and is opt-in —
// the default mix stays read-only so a smoke run never mutates state.
var kinds = []string{"examples", "substitutes", "matches", "catalog", "stats", "search", "compose", "generate"}

func knownKind(k string) bool {
	for _, known := range kinds {
		if k == known {
			return true
		}
	}
	return false
}

// Report is the JSON artifact of a run. Date/GoVersion are stamped by
// main (not Run) so tests stay deterministic.
type Report struct {
	Date            string                    `json:"date,omitempty"`
	GoVersion       string                    `json:"goVersion,omitempty"`
	Mode            string                    `json:"mode"`
	Targets         []string                  `json:"targets"`
	Users           int                       `json:"users,omitempty"`
	RatePerSec      float64                   `json:"ratePerSec,omitempty"`
	DurationSeconds float64                   `json:"durationSeconds"`
	Overall         *EndpointStats            `json:"overall"`
	Endpoints       map[string]*EndpointStats `json:"endpoints"`
}

// EndpointStats aggregates one request class (or the whole run).
// Errors breaks the failures down by coarse class — "timeout",
// "network", or "status NNN" — so a report distinguishes an overloaded
// server (timeouts) from a broken route (4xx/5xx) without rerunning.
type EndpointStats struct {
	Requests   int            `json:"requests"`
	Failures   int            `json:"failures"`
	Errors     map[string]int `json:"errors,omitempty"`
	Throughput float64        `json:"throughputPerSec"`
	Latency    Percentiles    `json:"latencyMs"`
}

// Percentiles summarise a latency distribution in milliseconds. P50
// through P99 are interpolated from histogram buckets; Mean and Max are
// exact.
type Percentiles struct {
	P50Ms  float64 `json:"p50"`
	P90Ms  float64 `json:"p90"`
	P99Ms  float64 `json:"p99"`
	MeanMs float64 `json:"mean"`
	MaxMs  float64 `json:"max"`
}

// Run drives the configured load and aggregates the report. It returns
// an error only for setup problems (no reachable target, empty mix);
// request failures during the run are counted, not fatal.
func Run(cfg Config) (*Report, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("no targets")
	}
	if len(cfg.Mix) == 0 {
		return nil, fmt.Errorf("empty request mix")
	}
	switch cfg.Mode {
	case "", "closed", "open":
	default:
		return nil, fmt.Errorf("unknown mode %q (want closed or open)", cfg.Mode)
	}
	if cfg.APIPrefix == "" {
		cfg.APIPrefix = "/api"
	}
	if cfg.Users <= 0 {
		cfg.Users = 1
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}

	l := &loader{
		cfg:    cfg,
		client: &http.Client{Timeout: cfg.Timeout},
		stats:  map[string]*classStats{},
	}
	for kind := range cfg.Mix {
		l.stats[kind] = newClassStats()
	}
	l.picker = newPicker(cfg.Mix)

	if err := l.discover(); err != nil {
		return nil, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration)
	defer cancel()
	start := time.Now()
	if cfg.Mode == "open" {
		l.runOpen(ctx)
	} else {
		l.runClosed(ctx)
	}
	elapsed := time.Since(start)

	return l.report(elapsed), nil
}

type loader struct {
	cfg    Config
	client *http.Client
	picker *picker

	// modules are the annotated module IDs discovered from the catalog;
	// module-scoped request kinds draw from this list.
	modules []string
	// sigs are (input concept, output concept) pairs sampled from module
	// signatures at discovery; compose requests draw their in/out from
	// here so the loader stays ontology-agnostic.
	sigs [][2]string

	issued atomic.Int64 // budget accounting, pre-request

	mu    sync.Mutex
	stats map[string]*classStats
}

// classStats aggregates one endpoint class: successful-request latencies
// in a telemetry histogram (milliseconds) plus the exact maximum, which
// caps the top bucket's interpolation, and failures by error class.
type classStats struct {
	hist     *telemetry.Histogram
	max      float64
	failures int
	errors   map[string]int
}

// histBounds spans 50µs to ~2 minutes in ~60 exponential steps — fine
// enough that linear interpolation inside a bucket stays honest at
// sub-millisecond latencies, wide enough to absorb timeout-bound tails.
var histBounds = func() []float64 {
	var b []float64
	for v := 0.05; v < 130_000; v *= 1.35 {
		b = append(b, v)
	}
	return b
}()

func newClassStats() *classStats { return &classStats{hist: telemetry.NewHistogram(histBounds)} }

func (cs *classStats) observe(ms float64) {
	cs.hist.Observe(ms)
	cs.max = max(cs.max, ms)
}

func (cs *classStats) merge(o *classStats) {
	cs.hist.Merge(o.hist)
	cs.max = max(cs.max, o.max)
	cs.failures += o.failures
	for class, n := range o.errors {
		if cs.errors == nil {
			cs.errors = map[string]int{}
		}
		cs.errors[class] += n
	}
}

func (cs *classStats) percentiles() Percentiles {
	p := Percentiles{
		P50Ms: cs.hist.QuantileMax(0.50, cs.max),
		P90Ms: cs.hist.QuantileMax(0.90, cs.max),
		P99Ms: cs.hist.QuantileMax(0.99, cs.max),
		MaxMs: cs.max,
	}
	if n := cs.hist.Count(); n > 0 {
		p.MeanMs = cs.hist.Sum() / float64(n)
	}
	return p
}

// discover fetches the catalog from the first target that answers and
// records the annotated module IDs.
func (l *loader) discover() error {
	var lastErr error
	for _, target := range l.cfg.Targets {
		var cat struct {
			Modules []struct {
				ID       string `json:"id"`
				Examples int    `json:"examples"`
			} `json:"modules"`
		}
		if err := l.getJSON(target+l.cfg.APIPrefix+"/catalog", &cat); err != nil {
			lastErr = err
			continue
		}
		for _, e := range cat.Modules {
			if e.Examples > 0 {
				l.modules = append(l.modules, e.ID)
			}
		}
		if len(l.modules) == 0 && l.needsModules() {
			return fmt.Errorf("catalog at %s has no annotated modules; seed the store or restrict -mix to catalog/stats/matches", target)
		}
		if l.cfg.Mix["compose"] > 0 {
			if err := l.discoverSignatures(target); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("no target answered the catalog probe: %w", lastErr)
}

// discoverSignatures samples module signatures so compose requests can
// ask for synthesis between concepts the catalog actually connects.
func (l *loader) discoverSignatures(target string) error {
	sample := l.modules
	if len(sample) > 8 {
		sample = sample[:8]
	}
	for _, id := range sample {
		var info struct {
			Inputs []struct {
				Semantic string `json:"semantic"`
			} `json:"inputs"`
			Outputs []struct {
				Semantic string `json:"semantic"`
			} `json:"outputs"`
		}
		if err := l.getJSON(target+l.cfg.APIPrefix+"/modules/"+id, &info); err != nil {
			continue
		}
		if len(info.Inputs) > 0 && len(info.Outputs) > 0 &&
			info.Inputs[0].Semantic != "" && info.Outputs[0].Semantic != "" {
			l.sigs = append(l.sigs, [2]string{info.Inputs[0].Semantic, info.Outputs[0].Semantic})
		}
	}
	if len(l.sigs) == 0 {
		return fmt.Errorf("no module signatures discovered at %s; drop compose from -mix", target)
	}
	return nil
}

func (l *loader) needsModules() bool {
	return l.cfg.Mix["examples"] > 0 || l.cfg.Mix["substitutes"] > 0 ||
		l.cfg.Mix["search"] > 0 || l.cfg.Mix["compose"] > 0 || l.cfg.Mix["generate"] > 0
}

func (l *loader) getJSON(url string, into any) error {
	resp, err := l.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// take claims one slot of the request budget; false means the budget is
// spent and the caller should stop.
func (l *loader) take() bool {
	if l.cfg.Requests <= 0 {
		return true
	}
	return l.issued.Add(1) <= int64(l.cfg.Requests)
}

func (l *loader) runClosed(ctx context.Context) {
	var wg sync.WaitGroup
	for u := 0; u < l.cfg.Users; u++ {
		wg.Add(1)
		go func(user int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(l.cfg.Seed + int64(user)*7919))
			// Budget exhaustion ends each user's loop individually; the
			// request in flight when the budget trips still completes and
			// is counted (cancelling here would under-report).
			for ctx.Err() == nil && l.take() {
				l.do(ctx, rng.Int63())
			}
		}(u)
	}
	wg.Wait()
}

func (l *loader) runOpen(ctx context.Context) {
	rate := l.cfg.Rate
	if rate <= 0 {
		rate = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	// The open loop fires on schedule no matter how slow the server is,
	// but a hard cap on in-flight requests keeps a stalled server from
	// exhausting file descriptors.
	inflight := make(chan struct{}, 4096)
	var wg sync.WaitGroup
	var seq int64
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			return
		case <-ticker.C:
			if !l.take() {
				wg.Wait()
				return
			}
			seq++
			n := seq
			select {
			case inflight <- struct{}{}:
			default:
				l.record("dropped", 0, fmt.Errorf("in-flight cap reached"))
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-inflight }()
				l.do(ctx, l.cfg.Seed+n*7919)
			}()
		}
	}
}

// do issues one request chosen deterministically from the per-call seed.
func (l *loader) do(ctx context.Context, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	kind := l.picker.pick(rng)
	target := l.cfg.Targets[rng.Intn(len(l.cfg.Targets))]
	base := target + l.cfg.APIPrefix

	method := http.MethodGet
	var url string
	switch kind {
	case "examples":
		url = base + "/modules/" + l.modules[rng.Intn(len(l.modules))] + "/examples"
	case "substitutes":
		url = base + "/modules/" + l.modules[rng.Intn(len(l.modules))] + "/substitutes"
	case "matches":
		url = base + "/matches"
	case "catalog":
		url = base + "/catalog"
	case "stats":
		url = base + "/stats"
	case "search":
		// Alternate keyword and behavior-class queries over the annotated
		// catalog; both are cheap and exercise different posting families.
		id := l.modules[rng.Intn(len(l.modules))]
		q := id
		if rng.Intn(3) == 0 {
			q = "behaves:" + id
		}
		url = base + "/search?q=" + neturl.QueryEscape(q)
	case "compose":
		sig := l.sigs[rng.Intn(len(l.sigs))]
		url = base + "/compose?in=" + neturl.QueryEscape(sig[0]) +
			"&out=" + neturl.QueryEscape(sig[1]) + "&limit=3"
	case "generate":
		// The write path: force re-annotation of a stored module, which
		// lands on the group-commit path when the content changed and on
		// the hash no-op path when it did not.
		method = http.MethodPost
		url = base + "/modules/" + l.modules[rng.Intn(len(l.modules))] + "/generate?refresh=1"
	}

	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		l.record(kind, 0, err)
		return
	}
	start := time.Now()
	resp, err := l.client.Do(req)
	elapsed := time.Since(start)
	if err != nil {
		// A request cut off by the run deadline is not a server failure.
		if ctx.Err() != nil {
			return
		}
		l.record(kind, elapsed, err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// Redirects are followed by the client; anything >= 400 is a failure.
	if resp.StatusCode >= 400 {
		err = statusError(resp.StatusCode)
	}
	l.record(kind, elapsed, err)
}

// statusError is an HTTP failure status, kept typed so record can
// classify it without parsing its message.
type statusError int

func (s statusError) Error() string { return fmt.Sprintf("status %d", int(s)) }

// errClass buckets a request failure for the per-kind error breakdown.
func errClass(err error) string {
	var sc statusError
	if errors.As(err, &sc) {
		return sc.Error()
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return "timeout"
	}
	return "network"
}

func (l *loader) record(kind string, elapsed time.Duration, err error) {
	ms := float64(elapsed) / float64(time.Millisecond)
	l.mu.Lock()
	defer l.mu.Unlock()
	cs := l.stats[kind]
	if cs == nil {
		cs = newClassStats()
		l.stats[kind] = cs
	}
	if err != nil {
		cs.failures++
		if cs.errors == nil {
			cs.errors = map[string]int{}
		}
		cs.errors[errClass(err)]++
		return
	}
	cs.observe(ms)
}

func (l *loader) report(elapsed time.Duration) *Report {
	l.mu.Lock()
	defer l.mu.Unlock()

	secs := elapsed.Seconds()
	overall := newClassStats()
	endpoints := map[string]*EndpointStats{}

	names := make([]string, 0, len(l.stats))
	for name := range l.stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cs := l.stats[name]
		if cs.hist.Count() == 0 && cs.failures == 0 {
			continue
		}
		endpoints[name] = endpointStats(cs, secs)
		overall.merge(cs)
	}

	return &Report{
		Mode:            orDefault(l.cfg.Mode, "closed"),
		Targets:         l.cfg.Targets,
		Users:           l.cfg.Users,
		RatePerSec:      openRate(l.cfg),
		DurationSeconds: secs,
		Overall:         endpointStats(overall, secs),
		Endpoints:       endpoints,
	}
}

func endpointStats(cs *classStats, secs float64) *EndpointStats {
	es := &EndpointStats{
		Requests: int(cs.hist.Count()) + cs.failures,
		Failures: cs.failures,
		Latency:  cs.percentiles(),
	}
	if len(cs.errors) > 0 {
		es.Errors = make(map[string]int, len(cs.errors))
		for class, n := range cs.errors {
			es.Errors[class] = n
		}
	}
	if secs > 0 {
		es.Throughput = float64(es.Requests) / secs
	}
	return es
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func openRate(cfg Config) float64 {
	if cfg.Mode == "open" {
		return cfg.Rate
	}
	return 0
}

// picker draws a request kind from the weighted mix, deterministically
// given the rng.
type picker struct {
	names   []string
	cumulat []int
	total   int
}

func newPicker(mix map[string]int) *picker {
	p := &picker{}
	names := make([]string, 0, len(mix))
	for name := range mix {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p.total += mix[name]
		p.names = append(p.names, name)
		p.cumulat = append(p.cumulat, p.total)
	}
	return p
}

func (p *picker) pick(rng *rand.Rand) string {
	n := rng.Intn(p.total)
	for i, c := range p.cumulat {
		if n < c {
			return p.names[i]
		}
	}
	return p.names[len(p.names)-1]
}
