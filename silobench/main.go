// Command silobench is the repository benchmark: it runs one SiloFuse
// workload (fit-narrow, fit-wide or serve-eval) from generated inputs,
// checks every output it produces, and prints the metrics as one JSON
// object on the last line of standard output.
//
// With --trace 0 it measures the end-to-end metrics through core.SiloFuse;
// with --trace 1 it replays the same run through the public silo, tabular,
// metrics and privacy calls with a span around each, and reports per-layer
// metrics. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// op counts one attempted operation; err != nil counts it as failed.
func (r *result) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		fmt.Fprintln(os.Stderr, "silobench: failed:", err)
	}
}

func main() {
	name := flag.String("workload", "", "workload: fit-narrow, fit-wide or serve-eval")
	seed := flag.Int64("seed", 1, "input seed: the order of the synthesis requests")
	seconds := flag.Float64("seconds", 20, "length of the measured loop in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "silobench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	env := map[string]any{
		"workload": w.name, "seed": *seed, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
	if *trace == 1 {
		env["note"] = "*_gflop_per_s rates are FLOP counts computed from layer shapes, not counted by hardware"
	}
	if err := json.NewEncoder(os.Stdout).Encode(map[string]any{"env": env}); err != nil {
		fmt.Fprintln(os.Stderr, "silobench:", err)
		os.Exit(1)
	}

	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(os.Stdout, w, fullBudget, *seed)
	} else {
		res, err = runPlain(w, fullBudget, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "silobench:", err)
		os.Exit(1)
	}
	res.Correct = res.Failed == 0
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "silobench:", err)
		os.Exit(1)
	}
}
