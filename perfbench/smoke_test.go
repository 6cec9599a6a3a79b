package main

import (
	"net/http"
	"testing"
)

// TestSmokeWorkloads runs every workload briefly, traced, and wants every
// answer right. Under -race it also shows that annotate's Module.Bind
// drift toggles, which touch only client-owned modules while no read
// invokes a module live, never race an invocation.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full catalog per workload")
	}
	cfg := config{seed: 5, seconds: 1, trace: true, root: t.TempDir(), setups: 1, clients: 2}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := runWorkload(cfg, name)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range layerMetricNames {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("missing per-layer metric %s", m.name)
				}
			}
		})
	}
}

// TestPlantedWrongAnswersFail sets up each workload, plants a wrong
// expectation for one operation and wants that operation counted as
// failed, while the same operation against the true expectation passes.
func TestPlantedWrongAnswersFail(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full catalog per workload")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			wl, err := newWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			w, err := newWorld(t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			if err := wl.setup(w, 5, 2); err != nil {
				t.Fatal(err)
			}
			c := newClient(0, 5, http.DefaultTransport, nil)
			o, plant := plantWrong(t, wl)
			wl.exec(w, c, o)
			if c.failed != 0 {
				t.Fatalf("true answer failed: %v", c.failures)
			}
			plant()
			wl.exec(w, c, o)
			if c.failed != 1 {
				t.Fatalf("planted wrong answer passed (%d failures)", c.failed)
			}
		})
	}
}

// plantWrong picks an operation of the workload and returns a function
// that corrupts what its check expects.
func plantWrong(t *testing.T, wl workload) (op, func()) {
	switch wl := wl.(type) {
	case *browse:
		id := wl.ids[0]
		p := substitutesPath(id) + "?limit=5"
		return op{kind: kindSubstitutes, path: p, module: id}, func() { wl.answers[p] = append([]byte(nil), "{}"...) }
	case *annotate:
		id := wl.owned[0][0]
		return op{kind: kindLookup, path: examplesPath(id), module: id}, func() { wl.orig[id] = wl.drift[id] }
	case *repair:
		id := wl.owned[0][0]
		return op{kind: kindSubstitutes, path: substitutesPath(id) + "?limit=5", module: id}, func() {
			wl.oracle[id] = append([]ranked{{ID: "planted", Verdict: "equivalent", Score: 1}}, wl.oracle[id]...)
		}
	case *sharded:
		p := examplesPath(wl.ids[1])
		return op{kind: kindLookup, path: p, module: wl.ids[1], shard: 1}, func() { wl.examples[p] = []byte("{}") }
	}
	t.Fatalf("no planted answer for %T", wl)
	return op{}, nil
}
