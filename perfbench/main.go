// Command perfbench is dexa's end-to-end benchmark. It runs the real
// serving stack in-process on loopback listeners, wired from the
// constructors cmd/dexa-serve uses, over the 252-module catalog, and
// drives it with one closed-loop client on one Go processor. Every answer
// is checked; a wrong answer counts as a failed operation. Its result
// times are process CPU times, which a shared host's steal does not
// inflate (see README.md).
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload browse --seed 1 --seconds 10 --trace 0
//
// Workloads: browse, annotate, repair, sharded, or all. With --trace 0
// the result carries the end-to-end metrics; with --trace 1 it carries
// the per-layer metrics of a traced run (see README.md). The last line
// of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

var workloadNames = []string{"browse", "annotate", "repair", "sharded"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "browse":
		return &browse{}, nil
	case "annotate":
		return &annotate{}, nil
	case "repair":
		return &repair{}, nil
	case "sharded":
		return &sharded{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames, ", "))
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	setups   int
	clients  int
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "browse", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs traced and reports per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository root; stores and traces go under its .bench_build/")
	flag.Parse()
	// Client and server take turns on one CPU, so the figures do not
	// depend on how much of a second CPU the host leaves the process.
	runtime.GOMAXPROCS(1)
	cfg.setups, cfg.clients = 5, 1
	cfg.trace = traceFlag == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(cfg config) error {
	if cfg.setups < 1 || cfg.clients < 1 || cfg.seconds <= 0 {
		return fmt.Errorf("need at least one set-up, one client and a positive duration")
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	}
	out := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	cfg.root = out
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		res, err := runWorkload(cfg, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if len(names) == 1 {
			return emit(res)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[name+"."+k] = v
		}
	}
	return emit(total)
}

func emit(r result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// hostFacts stamps a result with where it was measured.
type hostFacts struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	StoreFS    string  `json:"store_fs"`
	Clients    int     `json:"clients"`
	Loop       string  `json:"loop"`
	Seconds    float64 `json:"seconds"`
	Setups     int     `json:"setups"`
}

// filesystem names the filesystem holding dir.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func runWorkload(cfg config, name string) (result, error) {
	facts := hostFacts{
		Workload: name, Seed: cfg.seed, Trace: cfg.trace, Nproc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), StoreFS: filesystem(cfg.root),
		Clients: cfg.clients, Loop: "closed", Seconds: cfg.seconds, Setups: cfg.setups,
	}
	stamp, _ := json.Marshal(facts)
	fmt.Println("host", string(stamp))

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var (
		w                             *world
		wl                            workload
		setups, setupWall, setupSteal dist
	)
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			w.close()
		}
		host, cpu, start := readCPU(), processCPU(), time.Now()
		var err error
		if wl, err = newWorkload(name); err != nil {
			return result{}, err
		}
		if w, err = newWorld(cfg.root, tr); err != nil {
			return result{}, err
		}
		if err := wl.setup(w, cfg.seed, cfg.clients); err != nil {
			w.close()
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (processCPU() - cpu).Seconds())
		setupWall = append(setupWall, time.Since(start).Seconds())
		setupSteal = append(setupSteal, readCPU().stealSince(host))
	}
	defer w.close()

	var dials atomic.Int64
	rt := transport(&dials)
	defer rt.CloseIdleConnections()
	clients := make([]*client, cfg.clients)
	for c := range clients {
		clients[c] = newClient(c, cfg.seed, rt, tr)
	}
	resetWindow(wl, clients)
	runtime.GC()
	d := time.Duration(cfg.seconds * float64(time.Second))

	rep := report{metrics: map[string]metric{}}
	if !cfg.trace {
		before := w.snapshot()
		ran := runClosed(w, wl, clients, d)
		rep.window(w, wl, clients, before, w.snapshot(), ran)
	} else {
		// Untraced then traced halves: the difference is the tracing
		// overhead; the per-layer metrics come from the traced half.
		runClosed(w, wl, clients, d/2)
		untraced := collect(clients)
		resetWindow(wl, clients)
		tr.on.Store(true)
		before := w.snapshot()
		traced := runClosed(w, wl, clients, d/2)
		after := w.snapshot()
		tr.on.Store(false)
		rep.untraced = untraced
		rep.window(w, wl, clients, before, after, traced)
		rep.spans = tr.take()
		rep.dials = dials.Load()
	}
	failed := 0
	var failures []string
	for _, c := range clients {
		failed += c.failed
		failures = append(failures, c.failures...)
	}
	attempted := len(rep.samples)
	if cfg.trace {
		attempted += len(rep.untraced)
	}
	for _, err := range wl.finish(w) {
		failed++
		failures = append(failures, "end-of-run check: "+err.Error())
	}
	// The end-of-run checks leave the nodes quiet (annotate's follower
	// has caught up) for the last heap reading.
	rep.heap = append(rep.heap, liveHeapMB())
	rep.setups = setups
	fmt.Printf("setups_cpu_s %.3f wall_s %.3f steal %.3f\n", setups, setupWall, setupSteal)
	fmt.Printf("run_steal %.3f\n", rep.run.steal)

	for i, f := range failures {
		if i == 10 {
			break
		}
		fmt.Println("failure", f)
	}
	if cfg.trace {
		rep.probed = map[string]float64{}
		if err := probe(w, cfg.seed, rep.probed); err != nil {
			return result{}, err
		}
		path := filepath.Join(cfg.root, fmt.Sprintf("spans-%s-%d.jsonl", name, cfg.seed))
		if err := writeSpans(path, rep.spans); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Println("spans", path, len(rep.spans))
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed}
	if cfg.trace {
		res.Metrics = rep.layerMetrics(w)
	} else {
		res.Metrics = rep.endToEnd(attempted, failed)
	}
	keys := make([]string, 0, len(rep.metrics))
	for k := range rep.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("metric %-40s %14.6g %s\n", k, rep.metrics[k].Value, rep.metrics[k].Unit)
	}
	return res, nil
}

// collect gathers every client's samples.
func collect(clients []*client) []sample {
	var out []sample
	for _, c := range clients {
		out = append(out, c.samples...)
	}
	return out
}

// resetWindow starts a new measurement window on every client and the
// workload's own recorders.
func resetWindow(wl workload, clients []*client) {
	for _, c := range clients {
		c.samples, c.matches, c.redirects = nil, nil, 0
	}
	if an, ok := wl.(*annotate); ok {
		an.resetWindow()
	}
}
