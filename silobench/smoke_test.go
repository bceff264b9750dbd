package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// smokeBudget shrinks every part of a run to test size.
var smokeBudget = budget{aeIters: 3, diffIters: 5, setupReps: 1, minRequests: 1, evalRows: 100, rows: 400}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

// TestSmoke runs every workload of BENCHMARK.json once at the smoke budget,
// untraced and traced, and requires each declared metric with its declared
// unit, no other metric, and no failed operation.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	b := smokeBudget
	for _, bw := range spec.Workloads {
		w, ok := workloadByName(bw.Name)
		if !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", bw.Name)
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := runPlain(w, b, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, "untraced", res, spec.EndToEnd)
			res, err = runTraced(io.Discard, w, b, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, "traced", res, spec.PerLayer)
		})
	}
}

func checkResult(t *testing.T, mode string, res *result, want []benchMetric) {
	t.Helper()
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s: %d of %d operations failed", mode, res.Failed, res.Attempted)
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", mode, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", mode, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", mode, m.Name, got.Value)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json declares %d", mode, len(res.Metrics), len(want))
	}
}
