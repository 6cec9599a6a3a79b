package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dexa/internal/cluster"
	"dexa/internal/core"
	"dexa/internal/instances"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/ontology"
	"dexa/internal/registry"
	"dexa/internal/serve"
	"dexa/internal/store"
	"dexa/internal/typesys"
)

func seqModule(id string, fn func(s string) string) *module.Module {
	m := &module.Module{
		ID: id, Name: "module " + id, Kind: module.Kind(0),
		Inputs:  []module.Parameter{{Name: "seq", Struct: typesys.StringType, Semantic: "Seq"}},
		Outputs: []module.Parameter{{Name: "acc", Struct: typesys.StringType, Semantic: "Acc"}},
	}
	m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		return map[string]typesys.Value{"acc": typesys.Str(fn(string(in["seq"].(typesys.StringValue))))}, nil
	}))
	return m
}

// startCluster brings up a seeded two-shard cluster over real listeners
// and returns the shard base URLs — the same wiring dexa-serve does,
// minus the process boundary.
func startCluster(t *testing.T) []string {
	t.Helper()
	o := ontology.New("t")
	o.MustAddConcept("Data", "")
	o.MustAddConcept("Seq", "", "Data")
	o.MustAddConcept("DNA", "", "Seq")
	o.MustAddConcept("Acc", "", "Data")
	p := instances.NewPool(o)
	p.MustAdd("DNA", typesys.Str("ACGT"), "")
	p.MustAdd("Acc", typesys.Str("P12345"), "")
	reg := registry.New()
	for _, m := range []*module.Module{
		seqModule("alpha", func(s string) string { return "X:" + s }),
		seqModule("beta", func(s string) string { return "X:" + s }),
		seqModule("gamma", func(s string) string { return "Y:" + s }),
	} {
		reg.MustRegister(m)
	}

	names := []string{"s1", "s2"}
	var cfg cluster.Config
	listeners := map[string]net.Listener{}
	for _, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[name] = ln
		cfg.Shards = append(cfg.Shards, cluster.ShardConfig{Name: name, URL: "http://" + ln.Addr().String()})
	}
	ring, err := cfg.Ring()
	if err != nil {
		t.Fatal(err)
	}

	var urls []string
	sources := map[string]*store.Source{}
	for _, name := range names {
		st, err := store.Open("", store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		source := store.NewSource(st, core.NewGenerator(o, p))
		sources[name] = source
		cmp := match.NewComparer(o, source)
		node, err := cluster.NewShardNode(cfg, name, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv := &serve.Server{Registry: reg, Store: st, Source: source, Comparer: cmp, Cluster: node}
		mux := http.NewServeMux()
		mux.Handle("/api/", http.StripPrefix("/api", srv.Handler()))
		mux.Handle("/wal", cluster.NewFeed(st, nil))
		ts := &httptest.Server{Listener: listeners[name], Config: &http.Server{Handler: mux}}
		ts.Start()
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}

	for _, id := range reg.IDs() {
		e, _ := reg.Get(id)
		if _, _, err := sources[ring.Owner(id)].Generate(e.Module); err != nil {
			t.Fatalf("annotating %s: %v", id, err)
		}
	}
	return urls
}

func TestRunClosedLoopAgainstCluster(t *testing.T) {
	urls := startCluster(t)
	const budget = 60
	report, err := Run(Config{
		Targets:  urls,
		Mode:     "closed",
		Users:    4,
		Duration: 30 * time.Second, // budget ends the run long before this
		Requests: budget,
		Mix:      map[string]int{"examples": 5, "substitutes": 2, "matches": 1, "catalog": 1, "stats": 1},
		Seed:     1,
		Timeout:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Overall.Failures != 0 {
		t.Fatalf("%d failed requests against a healthy cluster", report.Overall.Failures)
	}
	if report.Overall.Requests != budget {
		t.Fatalf("issued %d requests, budget was %d", report.Overall.Requests, budget)
	}
	if report.DurationSeconds >= 30 {
		t.Fatalf("run did not stop at the request budget (took %.1fs)", report.DurationSeconds)
	}
	if len(report.Endpoints) == 0 {
		t.Fatal("no per-endpoint stats")
	}
	total := 0
	for name, es := range report.Endpoints {
		if es.Requests == 0 {
			t.Errorf("endpoint %s recorded no requests", name)
		}
		if es.Latency.MaxMs <= 0 || es.Latency.P50Ms <= 0 {
			t.Errorf("endpoint %s has empty latency stats: %+v", name, es.Latency)
		}
		if es.Latency.P50Ms > es.Latency.MaxMs+1e-9 {
			t.Errorf("endpoint %s: p50 %.3f above max %.3f", name, es.Latency.P50Ms, es.Latency.MaxMs)
		}
		total += es.Requests
	}
	if total != report.Overall.Requests {
		t.Fatalf("endpoint counts sum to %d, overall says %d", total, report.Overall.Requests)
	}
	if report.Overall.Throughput <= 0 {
		t.Fatal("overall throughput not computed")
	}
}

func TestRunOpenLoopRespectsBudget(t *testing.T) {
	urls := startCluster(t)
	const budget = 20
	report, err := Run(Config{
		Targets:  urls,
		Mode:     "open",
		Rate:     500,
		Duration: 30 * time.Second,
		Requests: budget,
		Mix:      map[string]int{"catalog": 1, "stats": 1},
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Overall.Requests != budget {
		t.Fatalf("issued %d requests, budget was %d", report.Overall.Requests, budget)
	}
	if report.Overall.Failures != 0 {
		t.Fatalf("%d failures", report.Overall.Failures)
	}
	if report.Mode != "open" || report.RatePerSec != 500 {
		t.Fatalf("report mode/rate = %s/%.0f", report.Mode, report.RatePerSec)
	}
}

func TestRunWriteMixReportsGenerate(t *testing.T) {
	urls := startCluster(t)
	const budget = 24
	report, err := Run(Config{
		Targets:  urls,
		Mode:     "closed",
		Users:    4,
		Duration: 30 * time.Second,
		Requests: budget,
		Mix:      map[string]int{"examples": 1, "generate": 2},
		Seed:     3,
		Timeout:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Overall.Failures != 0 {
		t.Fatalf("%d failed requests (%v) against a healthy cluster", report.Overall.Failures, report.Overall.Errors)
	}
	gen := report.Endpoints["generate"]
	if gen == nil || gen.Requests == 0 {
		t.Fatal("write mix recorded no generate requests")
	}
	if gen.Latency.P50Ms <= 0 || gen.Latency.MaxMs <= 0 {
		t.Fatalf("generate latency stats empty: %+v", gen.Latency)
	}
	if len(gen.Errors) != 0 {
		t.Fatalf("healthy generate requests recorded errors: %v", gen.Errors)
	}
}

func TestRunBreaksErrorsDownByClass(t *testing.T) {
	// The first catalog answer seeds discovery; everything after 503s, so
	// every counted request should land in the "status 503" bucket.
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/catalog" && served.Add(1) == 1 {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"modules":[{"id":"alpha","examples":2}]}`))
			return
		}
		http.Error(w, "boom", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	const budget = 10
	report, err := Run(Config{
		Targets:  []string{ts.URL},
		Mode:     "closed",
		Users:    2,
		Duration: 10 * time.Second,
		Requests: budget,
		Mix:      map[string]int{"examples": 1},
		Seed:     5,
		Timeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Overall.Failures != budget {
		t.Fatalf("failures = %d, want %d", report.Overall.Failures, budget)
	}
	es := report.Endpoints["examples"]
	if es == nil || es.Errors["status 503"] != budget {
		t.Fatalf("examples error breakdown = %+v", es)
	}
	if report.Overall.Errors["status 503"] != budget {
		t.Fatalf("overall error breakdown = %v", report.Overall.Errors)
	}
}

func TestRunRejectsBadSetups(t *testing.T) {
	if _, err := Run(Config{Mix: map[string]int{"catalog": 1}}); err == nil {
		t.Error("no targets accepted")
	}
	if _, err := Run(Config{Targets: []string{"http://127.0.0.1:1"}}); err == nil {
		t.Error("empty mix accepted")
	}
	if _, err := Run(Config{Targets: []string{"http://x"}, Mode: "bursty", Mix: map[string]int{"catalog": 1}}); err == nil {
		t.Error("unknown mode accepted")
	}
	// Unreachable target: setup must fail at the catalog probe, fast.
	cfg := Config{
		Targets: []string{"http://127.0.0.1:1"},
		Mix:     map[string]int{"catalog": 1},
		Timeout: 200 * time.Millisecond,
	}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "catalog probe") {
		t.Errorf("unreachable target error = %v", err)
	}
}

func TestParseMix(t *testing.T) {
	mix, err := parseMix("examples=5, substitutes=2,matches=0")
	if err != nil {
		t.Fatal(err)
	}
	if mix["examples"] != 5 || mix["substitutes"] != 2 {
		t.Fatalf("mix = %v", mix)
	}
	if _, zero := mix["matches"]; zero {
		t.Error("zero-weight kind retained")
	}
	for _, bad := range []string{"examples", "bogus=3", "examples=-1", "examples=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := newClassStats()
	for i := 1; i <= 1000; i++ {
		h.observe(float64(i) / 10) // 0.1ms .. 100ms uniform
	}
	p := h.percentiles()
	if p.P50Ms < 35 || p.P50Ms > 65 {
		t.Errorf("p50 = %.2f, want ~50", p.P50Ms)
	}
	if p.P99Ms < 85 || p.P99Ms > 100 {
		t.Errorf("p99 = %.2f, want ~99", p.P99Ms)
	}
	if p.MaxMs != 100 {
		t.Errorf("max = %.2f, want 100", p.MaxMs)
	}

	if p := newClassStats().percentiles(); p.P50Ms != 0 {
		t.Errorf("empty percentile = %.2f", p.P50Ms)
	}

	other := newClassStats()
	other.observe(500)
	h.merge(other)
	if h.hist.Count() != 1001 || h.max != 500 {
		t.Errorf("merge: count=%d max=%.1f", h.hist.Count(), h.max)
	}
}
