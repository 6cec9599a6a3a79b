package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSON: the repository's BENCHMARK.json names exactly the
// workloads and metrics this program runs and reports, with their units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads listed, %d run", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %s, want %s", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, listed []struct{ Name, Unit string }, emitted []struct{ name, unit string }) {
		if len(listed) != len(emitted) {
			t.Errorf("%s: %d listed, %d emitted", kind, len(listed), len(emitted))
			return
		}
		for i := range listed {
			if listed[i].Name != emitted[i].name || listed[i].Unit != emitted[i].unit {
				t.Errorf("%s %d: listed %s (%s), emitted %s (%s)", kind, i, listed[i].Name, listed[i].Unit, emitted[i].name, emitted[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndMetrics)
	same("per_layer", doc.PerLayer, layerMetricNames)
}
