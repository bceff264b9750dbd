package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"silofuse/internal/core"
	"silofuse/internal/datagen"
	"silofuse/internal/metrics"
	"silofuse/internal/privacy"
	"silofuse/internal/tabular"
)

// workload is one benchmark input set. Every workload fits, serves and
// evaluates a SiloFuse model; serve marks the one whose measured loop is
// synthesis requests instead of fits.
type workload struct {
	name    string
	dataset string
	serve   bool
}

var workloads = []workload{
	{name: "fit-narrow", dataset: "loan"},
	{name: "fit-wide", dataset: "churn"},
	{name: "serve-eval", dataset: "loan", serve: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// budget scales a run. The model widths are core.DefaultOptions(); only
// the iteration counts shrink, keeping DefaultOptions' 3:5 AE:diffusion
// ratio (1500:2500).
type budget struct {
	aeIters, diffIters int
	setupReps          int     // at least this many set-ups per run...
	setupSeconds       float64 // ...and at least this long; setup_s is their median
	minRequests        int     // serve-eval: at least this many requests per run
	evalRows           int     // synthetic rows in the evaluated sample
	rows               int     // generated rows, capped at the dataset's own count
}

var fullBudget = budget{aeIters: 15, diffIters: 25, setupReps: 3, setupSeconds: 2, minRequests: 100, evalRows: 1000, rows: 5000}

// options returns the model options of every workload at budget b.
func (b budget) options() core.Options {
	o := core.DefaultOptions()
	o.AEIters, o.DiffIters = b.aeIters, b.diffIters
	return o
}

// probeRows is the size of the sample drawn after every fit to check it.
const probeRows = 8

// makeData generates the workload's table and splits off a 20% real
// hold-out for the utility metric. The table is part of the workload: it is
// drawn at the dataset's own seed, so every run fits and evaluates the same
// data and quality is measured at a fixed seed.
func makeData(w workload, b budget) (train, test *tabular.Table, err error) {
	spec, err := datagen.ByName(w.dataset)
	if err != nil {
		return nil, nil, err
	}
	full := spec.Generate(min(b.rows, spec.PaperRows), spec.Seed)
	train, test = full.Split(rand.New(rand.NewSource(spec.Seed)), 0.2)
	return train, test, nil
}

// Request mix: a closed loop of one caller whose requests come in cycles
// of 16: twelve in 8–32 rows and four in 256–512 rows (¾ small, ¼ large).
// Each size is the midpoint of one of four equal-width strata of its range,
// and each small size comes three times, so every cycle asks for the same
// rows; the seed decides the order. With four strata per range, the median
// falls inside one size's requests (23 rows), and from three cycles on so
// does the 90th percentile (416 rows). On the border between two sizes a
// percentile would pick the slowest request of one size or the fastest of
// the next.
const (
	strata    = 4
	smallReps = 3
)

func requestCycle(rng *rand.Rand) []int {
	out := make([]int, 0, (smallReps+1)*strata)
	for i := 0; i < smallReps; i++ {
		out = appendStrata(out, 8, 32, strata)
	}
	out = appendStrata(out, 256, 512, strata)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// appendStrata appends the midpoints of k equal-width strata of [lo, hi].
func appendStrata(out []int, lo, hi, k int) []int {
	width := float64(hi-lo+1) / float64(k)
	for i := 0; i < k; i++ {
		out = append(out, lo+int(width*(float64(i)+0.5)))
	}
	return out
}

func mixRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed*131 + 17)) }

// checkTable verifies one sampled table: the training schema, n rows,
// finite values and categorical codes inside their cardinality.
func checkTable(t *tabular.Table, schema *tabular.Schema, n int) error {
	if t == nil {
		return fmt.Errorf("nil table")
	}
	if t.Schema.NumColumns() != schema.NumColumns() {
		return fmt.Errorf("%d columns, want %d", t.Schema.NumColumns(), schema.NumColumns())
	}
	for j, c := range schema.Columns {
		g := t.Schema.Columns[j]
		if g.Name != c.Name || g.Kind != c.Kind || g.Cardinality != c.Cardinality {
			return fmt.Errorf("column %d is %+v, want %+v", j, g, c)
		}
	}
	if t.Rows() != n {
		return fmt.Errorf("%d rows, want %d", t.Rows(), n)
	}
	for i := 0; i < n; i++ {
		row := t.Data.Row(i)
		for j, c := range schema.Columns {
			v := row[j]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("row %d column %s is %v", i, c.Name, v)
			}
			if c.Kind == tabular.Categorical && (v < 0 || v >= float64(c.Cardinality) || v != math.Trunc(v)) { //silofuse:bitwise-ok a category code must be an exact integer
				return fmt.Errorf("row %d column %s code %v outside [0,%d)", i, c.Name, v, c.Cardinality)
			}
		}
	}
	return nil
}

// sameBits reports whether two tables hold bit-identical data.
func sameBits(a, b *tabular.Table) error {
	if a.Data.Rows != b.Data.Rows || a.Data.Cols != b.Data.Cols {
		return fmt.Errorf("shape %dx%d vs %dx%d", a.Data.Rows, a.Data.Cols, b.Data.Rows, b.Data.Cols)
	}
	for i, v := range a.Data.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data.Data[i]) {
			return fmt.Errorf("value %d differs: %v vs %v", i, v, b.Data.Data[i])
		}
	}
	return nil
}

// sampleChecked draws n rows from m and checks them.
func sampleChecked(m *core.SiloFuse, schema *tabular.Schema, n int) (*tabular.Table, error) {
	t, err := m.Sample(n)
	if err != nil {
		return nil, err
	}
	if err := checkTable(t, schema, n); err != nil {
		return nil, fmt.Errorf("sample of %d rows: %w", n, err)
	}
	return t, nil
}

// evalColumns lists the columns the quality metrics score: every column a
// default utility model can target. Wider categoricals (churn's 2932-way
// surname) are left out of all three metrics; scored with them, one
// evaluation on churn takes minutes.
func evalColumns(s *tabular.Schema) []int {
	maxCard := metrics.DefaultUtilityConfig().MaxCardinality
	var out []int
	for j, c := range s.Columns {
		if c.Kind == tabular.Numeric || c.Cardinality <= maxCard {
			out = append(out, j)
		}
	}
	return out
}

// quality holds one evaluation's scores and the time of each stage.
type quality struct {
	resemblance, utility, privacy   float64
	resS, utilS, privS, utilTargets float64
}

// scores returns the three quality scores as bit patterns, for exact
// comparison.
func (q quality) scores() [3]uint64 {
	return [3]uint64{math.Float64bits(q.resemblance), math.Float64bits(q.utility), math.Float64bits(q.privacy)}
}

// evaluate scores synth against the real tables with the default
// resemblance, utility and privacy configurations.
func evaluate(train, test, synth *tabular.Table) (quality, error) {
	cols := evalColumns(train.Schema)
	realTr, realTe, syn := train.SelectColumns(cols), test.SelectColumns(cols), synth.SelectColumns(cols)
	var q quality
	t0 := time.Now()
	r, err := metrics.Resemblance(realTr, syn, metrics.DefaultResemblanceConfig())
	if err != nil {
		return q, fmt.Errorf("resemblance: %w", err)
	}
	t1 := time.Now()
	u, err := metrics.Utility(realTr, syn, realTe, metrics.DefaultUtilityConfig())
	if err != nil {
		return q, fmt.Errorf("utility: %w", err)
	}
	t2 := time.Now()
	p, err := privacy.Evaluate(realTr, syn, privacy.DefaultConfig())
	if err != nil {
		return q, fmt.Errorf("privacy: %w", err)
	}
	t3 := time.Now()
	q = quality{
		resemblance: r.Score, utility: u.Score, privacy: p.Score,
		resS: t1.Sub(t0).Seconds(), utilS: t2.Sub(t1).Seconds(), privS: t3.Sub(t2).Seconds(),
		utilTargets: float64(u.Columns),
	}
	return q, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// totalAlloc returns the bytes allocated by the process so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}

// serveStats accumulates the latency of synthesis requests.
type serveStats struct {
	latMs []float64
	rows  int
	busyS float64
	alloc uint64
}

// serve runs one request cycle against m and checks and records each
// request.
func (s *serveStats) serve(res *result, m *core.SiloFuse, schema *tabular.Schema, cycle []int) {
	for _, n := range cycle {
		a0 := totalAlloc()
		t0 := time.Now()
		t, err := m.Sample(n)
		d := time.Since(t0)
		s.alloc += totalAlloc() - a0
		if err == nil {
			err = checkTable(t, schema, n)
		}
		res.op(err)
		if err != nil {
			continue
		}
		s.latMs = append(s.latMs, float64(d.Nanoseconds())/1e6)
		s.rows += n
		s.busyS += d.Seconds()
	}
}

// runPlain measures the end-to-end metrics of workload w with tracing off.
func runPlain(w workload, b budget, seed int64, loopSeconds float64) (*result, error) {
	res := newResult()
	opts := b.options()

	// Set-up: generate the inputs and construct the model, several times;
	// serve-eval also fits the model it will serve.
	var train, test *tabular.Table
	var model *core.SiloFuse
	var setupS, fitS []float64
	setupStart := time.Now()
	for len(setupS) < b.setupReps || time.Since(setupStart).Seconds() < b.setupSeconds {
		runtime.GC()
		t0 := time.Now()
		var err error
		train, test, err = makeData(w, b)
		if err != nil {
			return nil, err
		}
		model = core.NewSiloFuse(opts)
		if w.serve {
			t1 := time.Now()
			if err := model.Fit(train); err != nil {
				return nil, fmt.Errorf("set-up fit: %w", err)
			}
			fitS = append(fitS, time.Since(t1).Seconds())
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	schema := train.Schema
	rng := mixRng(seed)

	// Measured loop: closed, one caller, in rounds until loopSeconds have
	// passed. A fit-workload round fits the model and serves one request
	// cycle from it; a serve-eval round serves one cycle. The
	// sample is evaluated after the first round and again after the last,
	// so fits, requests and evaluations are spread over the run. The
	// evaluated sample is the first draw from the (deterministic) model.
	var (
		ss                    serveStats
		synth, probe0         *tabular.Table
		evalS                 []float64
		q0                    quality
		fitAlloc              uint64
		fitBytes, fitMsgs     float64
		serveBytes, serveMsgs int64
	)
	evaluateSample := func() error {
		runtime.GC()
		t0 := time.Now()
		q, err := evaluate(train, test, synth)
		evalS = append(evalS, time.Since(t0).Seconds())
		if err == nil && len(evalS) > 1 && q.scores() != q0.scores() {
			err = fmt.Errorf("evaluation is not deterministic: %v then %v", q0.scores(), q.scores())
		}
		res.op(err)
		q0 = q
		return err
	}
	minRequests := 0
	if w.serve {
		minRequests = b.minRequests
	}
	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < loopSeconds || len(ss.latMs) < minRequests; round++ {
		if !w.serve {
			m := core.NewSiloFuse(opts)
			runtime.GC()
			a0 := totalAlloc()
			t0 := time.Now()
			err := m.Fit(train)
			d := time.Since(t0)
			fitAlloc += totalAlloc() - a0
			var probe *tabular.Table
			if err == nil {
				// Every fit of the same table and options must be the same
				// model: its first probe sample is compared bit for bit.
				probe, err = sampleChecked(m, schema, probeRows)
			}
			if err == nil && probe0 != nil {
				if e := sameBits(probe0, probe); e != nil {
					err = fmt.Errorf("fit is not deterministic: %w", e)
				}
			}
			res.op(err)
			if err != nil {
				return nil, err
			}
			probe0 = probe
			fitS = append(fitS, d.Seconds())
			st := m.CommStats()
			fitBytes, fitMsgs = float64(st.Bytes), float64(st.Messages)
			model = m
		}
		if synth == nil {
			var err error
			synth, err = sampleChecked(model, schema, b.evalRows)
			res.op(err)
			if err != nil {
				return nil, err
			}
		}

		st0 := model.CommStats()
		ss.serve(res, model, schema, requestCycle(rng))
		st1 := model.CommStats()
		serveBytes += st1.Bytes - st0.Bytes
		serveMsgs += st1.Messages - st0.Messages

		if round == 0 {
			if err := evaluateSample(); err != nil {
				return nil, err
			}
		}
	}
	if err := evaluateSample(); err != nil {
		return nil, err
	}
	if len(ss.latMs) == 0 {
		return nil, fmt.Errorf("every synthesis request failed")
	}
	served := float64(len(ss.latMs))

	// Per-operation traffic and allocation: per fit on the fit workloads,
	// per synthesis request on serve-eval.
	if w.serve {
		res.set("wire_bytes", "B/op", float64(serveBytes)/served)
		res.set("wire_msgs", "msgs/op", float64(serveMsgs)/served)
		res.set("alloc_mb", "MB/op", float64(ss.alloc)/1e6/served)
	} else {
		res.set("wire_bytes", "B/op", fitBytes)
		res.set("wire_msgs", "msgs/op", fitMsgs)
		res.set("alloc_mb", "MB/op", float64(fitAlloc)/1e6/float64(len(fitS)))
	}
	res.set("setup_s", "s", median(setupS))
	res.set("fit_s", "s", median(fitS))
	res.set("synth_rows_per_s", "rows/s", float64(ss.rows)/ss.busyS)
	res.set("synth_p50_ms", "ms", quantile(ss.latMs, 0.5))
	res.set("synth_p90_ms", "ms", quantile(ss.latMs, 0.9))
	res.set("eval_s", "s", median(evalS))
	res.set("resemblance", "score", q0.resemblance)
	res.set("utility", "score", q0.utility)
	res.set("privacy", "score", q0.privacy)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.set("rss_peak_mb", "MB", rss)
	return res, nil
}
