package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"silofuse/internal/autoencoder"
	"silofuse/internal/core"
	"silofuse/internal/diffusion"
	"silofuse/internal/silo"
	"silofuse/internal/silo/codec"
	"silofuse/internal/tabular"
)

// span is one timed call at a layer boundary. Spans of one synthesis
// request share req; parent is the index of the enclosing span, -1 at the
// top level.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int
	req        int
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps every span in memory until the run ends. Clients record
// spans from their own goroutines, so begin/end are serialised.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span //silofuse:guardedby mu
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent, req int) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (the union, since parallel children overlap).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered time.Duration
		cur := s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < cur {
				lo = cur
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// writeSpanTable prints, per span name, the call count and total and self
// time, in order of first appearance.
func writeSpanTable(out io.Writer, spans []span) error {
	self := selfTimes(spans)
	type row struct {
		calls       int
		total, self time.Duration
	}
	var order []string
	rows := map[string]*row{}
	for i, s := range spans {
		r, ok := rows[s.name]
		if !ok {
			r = &row{}
			rows[s.name] = r
			order = append(order, s.name)
		}
		r.calls++
		r.total += s.dur()
		r.self += self[i]
	}
	if _, err := fmt.Fprintf(out, "# %-32s %6s %12s %12s\n", "span", "calls", "total_ms", "self_ms"); err != nil {
		return err
	}
	for _, name := range order {
		r := rows[name]
		if _, err := fmt.Fprintf(out, "# %-32s %6d %12.3f %12.3f\n", name, r.calls, ms(r.total), ms(r.self)); err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timedBus wraps a silo.Bus and sums the wall time spent in Send and Recv.
// The replay stacks one above and one below the CodecBus; the difference
// between the two is the codec's share.
type timedBus struct {
	inner          silo.Bus
	sendNs, recvNs atomic.Int64
}

func (b *timedBus) Send(e *silo.Envelope) error {
	t0 := time.Now()
	err := b.inner.Send(e)
	b.sendNs.Add(int64(time.Since(t0)))
	return err
}

func (b *timedBus) Recv(to string) (*silo.Envelope, error) {
	t0 := time.Now()
	e, err := b.inner.Recv(to)
	b.recvNs.Add(int64(time.Since(t0)))
	return e, err
}

func (b *timedBus) Stats() silo.Stats { return b.inner.Stats() }

// busy returns the nanoseconds spent in Send and in Recv so far.
func (b *timedBus) busy() (send, recv int64) { return b.sendNs.Load(), b.recvNs.Load() }

// pipelineConfig mirrors core.SiloFuse's unexported Options →
// silo.PipelineConfig mapping. The traced run's bit-identity check against
// core.SiloFuse guards the mirror.
func pipelineConfig(o core.Options) silo.PipelineConfig {
	return silo.PipelineConfig{
		Clients:     o.Clients,
		Permutation: o.Permutation,
		AE: autoencoder.Config{
			Hidden: o.AEHidden, Embed: o.AEEmbed, LR: o.LR,
			DecodePrecision: o.ComputePrecision,
		},
		Diff: diffusion.ModelConfig{
			Hidden: o.DiffHidden, Depth: o.DiffDepth,
			TimeDim: o.DiffTimeDim, T: o.T, LR: o.LR, Dropout: 0.01,
			EMADecay: o.EMADecay, CosineSch: o.CosineSchedule,
			DebugSpin: o.DebugSpin, Precision: o.ComputePrecision,
		},
		DisableLatentWhitening: o.DisableLatentWhitening,
		LatentNoiseStd:         o.LatentNoiseStd,
		AEIters:                o.AEIters,
		DiffIters:              o.DiffIters,
		Batch:                  o.Batch,
		SynthSteps:             o.SynthSteps,
		Seed:                   o.Seed,
		SplitWidths:            o.SplitWidths,
		TrainWorkers:           o.TrainWorkers,
		TrainShards:            o.TrainShards,
	}
}

// replay drives Algorithms 1 and 2 through the public silo calls, in the
// order silo.Pipeline.TrainStacked and SynthesizeShared make them, with a
// span around each call.
type replay struct {
	tr     *tracer
	pipe   *silo.Pipeline
	outer  *timedBus // above the CodecBus
	inner  *timedBus // below it, on the LocalBus
	sample bool      // Options.DecodeSampling

	// Fit measurements.
	newPipeline                time.Duration
	aeWall, diffWall, shipWall time.Duration
	clientTrain                []time.Duration
	aeMallocs, diffMallocs     uint64
	aeFlops, diffFlops         float64
	fitWall                    time.Duration
	diffCfg                    diffusion.ModelConfig // with Dim set to the latent width

	// Synthesis measurements, summed over requests.
	requests, rows          int
	sampleDur, decodeDur    time.Duration
	joinDur, overheadDur    time.Duration
	sendNs, recvNs, codecNs int64
	sampleFlops             float64
}

func newReplay(tr *tracer, train *tabular.Table, o core.Options) (*replay, error) {
	id, err := codec.ByName(o.WireCodec)
	if err != nil {
		return nil, err
	}
	inner := &timedBus{inner: silo.NewLocalBus()}
	outer := &timedBus{inner: silo.NewCodecBus(inner, id)}
	sp := tr.begin("silo.NewPipeline", -1, 0)
	pipe, err := silo.NewPipeline(outer, train, pipelineConfig(o))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &replay{tr: tr, pipe: pipe, outer: outer, inner: inner, sample: o.DecodeSampling,
		newPipeline: tr.snapshot()[sp].dur()}, nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// fit replays Algorithm 1: parallel local AE training, one latent upload
// per client, coordinator diffusion training.
func (r *replay) fit() error {
	p, tr, cfg := r.pipe, r.tr, r.pipe.Cfg
	t0 := time.Now()
	root := tr.begin("fit", -1, 0)
	defer func() { tr.end(root); r.fitWall = time.Since(t0) }()

	phase := tr.begin("ae-train", root, 0)
	m0 := mallocs()
	r.clientTrain = make([]time.Duration, len(p.Clients))
	var wg sync.WaitGroup
	for i, c := range p.Clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.begin("Client.TrainLocal", phase, 0)
			c0 := time.Now()
			c.TrainLocal(cfg.AEIters, cfg.Batch)
			r.clientTrain[i] = time.Since(c0)
			tr.end(sp)
		}()
		batch := min(cfg.Batch, c.Data.Rows())
		r.aeFlops += float64(cfg.AEIters) * trainStepFlops(aeLayers(c.Data.Schema, c.AE.Enc.Width(), c.AE.Cfg), batch)
	}
	wg.Wait()
	r.aeMallocs = mallocs() - m0
	tr.end(phase)
	r.aeWall = tr.snapshot()[phase].dur()

	ship := tr.begin("latent-ship", root, 0)
	errs := make([]error, len(p.Clients))
	for i, c := range p.Clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.begin("Client.UploadLatents", ship, 0)
			errs[i] = c.UploadLatents(p.Bus, p.Coord.ID, cfg.LatentNoiseStd)
			tr.end(sp)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			tr.end(ship)
			return fmt.Errorf("upload latents: %w", err)
		}
	}
	sp := tr.begin("Coordinator.CollectLatents", ship, 0)
	z, err := p.Coord.CollectLatents(p.Bus)
	tr.end(sp)
	tr.end(ship)
	if err != nil {
		return fmt.Errorf("collect latents: %w", err)
	}
	r.shipWall = tr.snapshot()[ship].dur()

	sp = tr.begin("Coordinator.TrainDiffusion", root, 0)
	m0 = mallocs()
	p.Coord.TrainDiffusion(z, cfg.Diff, cfg.DiffIters, cfg.Batch)
	r.diffMallocs = mallocs() - m0
	tr.end(sp)
	r.diffWall = tr.snapshot()[sp].dur()
	r.diffCfg = cfg.Diff
	r.diffCfg.Dim = z.Cols
	r.diffFlops = float64(cfg.DiffIters) * trainStepFlops(diffusionLayers(r.diffCfg), min(cfg.Batch, z.Rows))
	return nil
}

// request replays one Algorithm 2 round in share-post-generation mode:
// synth-req from client 0, coordinator denoising, distribution, parallel
// per-client decode and the vertical join.
func (r *replay) request(n int) (*tabular.Table, error) {
	p, tr := r.pipe, r.tr
	r.requests++
	req := r.requests
	os0, or0 := r.outer.busy()
	is0, ir0 := r.inner.busy()
	root := tr.begin("request", -1, req)

	sp := tr.begin("synth-req", root, req)
	err := p.Bus.Send(&silo.Envelope{From: p.Clients[0].ID, To: p.Coord.ID, Kind: silo.KindSynthReq})
	var env *silo.Envelope
	if err == nil {
		env, err = p.Bus.Recv(p.Coord.ID)
	}
	tr.end(sp)
	if err == nil && env.Kind != silo.KindSynthReq {
		err = fmt.Errorf("coordinator expected synth request, got %q", env.Kind)
	}
	if err != nil {
		tr.end(root)
		return nil, err
	}

	sp = tr.begin("Coordinator.SampleLatents", root, req)
	parts, err := p.Coord.SampleLatents(n, p.Cfg.SynthSteps)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return nil, err
	}
	sp = tr.begin("Coordinator.DistributeLatents", root, req)
	err = p.Coord.DistributeLatents(p.Bus, parts)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return nil, err
	}

	decode := tr.begin("decode", root, req)
	out := make([]*tabular.Table, len(p.Clients))
	errs := make([]error, len(p.Clients))
	var wg sync.WaitGroup
	for i, c := range p.Clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.begin("recv", decode, req)
			env, err := p.Bus.Recv(c.ID)
			tr.end(sp)
			if err != nil {
				errs[i] = err
				return
			}
			if env.Kind != silo.KindSynthLatent {
				errs[i] = fmt.Errorf("client %s expected synth latents, got %q", c.ID, env.Kind)
				return
			}
			sp = tr.begin("Client.DecodeLatents", decode, req)
			out[i], errs[i] = c.DecodeLatents(env.Payload, r.sample)
			tr.end(sp)
		}()
	}
	wg.Wait()
	tr.end(decode)
	for _, err := range errs {
		if err != nil {
			tr.end(root)
			return nil, err
		}
	}
	sp = tr.begin("tabular.JoinVertical", root, req)
	t, err := tabular.JoinVertical(p.Schema, p.Parts, out)
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return nil, err
	}

	spans := tr.snapshot()
	self := selfTimes(spans)
	for i := root; i < len(spans); i++ {
		switch spans[i].name {
		case "Coordinator.SampleLatents":
			r.sampleDur += spans[i].dur()
		case "decode":
			r.decodeDur += spans[i].dur()
		case "tabular.JoinVertical":
			r.joinDur += spans[i].dur()
		}
	}
	r.overheadDur += self[root]
	r.rows += n
	r.sampleFlops += sampleFlops(r.diffCfg, n, min(p.Cfg.SynthSteps, r.diffCfg.T))
	os1, or1 := r.outer.busy()
	is1, ir1 := r.inner.busy()
	r.sendNs += is1 - is0
	r.recvNs += ir1 - ir0
	r.codecNs += (os1 - os0 + or1 - or0) - (is1 - is0 + ir1 - ir0)
	return t, nil
}

// runTraced measures the per-layer metrics of workload w: an untraced
// core.SiloFuse run (a fit, the evaluation sample and one request cycle) is
// replayed call by call with spans, the two outputs must agree bit for bit,
// and the evaluation of the sample runs under a span too.
func runTraced(out io.Writer, w workload, b budget, seed int64) (*result, error) {
	res := newResult()
	opts := b.options()

	t0 := time.Now()
	train, test, err := makeData(w, b)
	if err != nil {
		return nil, err
	}
	res.set("datagen.generate_s", "s", time.Since(t0).Seconds())
	schema := train.Schema
	sizes := append([]int{b.evalRows}, requestCycle(mixRng(seed))...)

	// Untraced reference through core.SiloFuse.
	runtime.GC()
	u0 := time.Now()
	ref := core.NewSiloFuse(opts)
	err = ref.Fit(train)
	res.op(err)
	if err != nil {
		return nil, err
	}
	want := make([]*tabular.Table, len(sizes))
	for i, n := range sizes {
		want[i], err = sampleChecked(ref, schema, n)
		res.op(err)
		if err != nil {
			return nil, err
		}
	}
	untraced := time.Since(u0)

	// The same run, replayed with spans.
	tr := newTracer()
	runtime.GC()
	v0 := time.Now()
	rp, err := newReplay(tr, train, opts)
	if err != nil {
		return nil, err
	}
	err = rp.fit()
	res.op(err)
	if err != nil {
		return nil, err
	}
	got := make([]*tabular.Table, len(sizes))
	for i, n := range sizes {
		got[i], err = rp.request(n)
		if err == nil {
			err = checkTable(got[i], schema, n)
		}
		if err == nil {
			if e := sameBits(want[i], got[i]); e != nil {
				err = fmt.Errorf("traced request %d differs from core.SiloFuse: %w", i, e)
			}
		}
		res.op(err)
		if err != nil {
			return nil, err
		}
	}
	traced := time.Since(v0)

	synth := got[0]
	sp := tr.begin("evaluate", -1, 0)
	q, err := evaluate(train, test, synth)
	tr.end(sp)
	res.op(err)
	if err != nil {
		return nil, err
	}
	wall := time.Since(v0)

	spans := tr.snapshot()
	if err := writeSpanTable(out, spans); err != nil {
		return nil, err
	}
	var top time.Duration
	for _, s := range spans {
		if s.parent < 0 {
			top += s.dur()
		}
	}
	res.set("trace.unaccounted_share", "share", 1-top.Seconds()/wall.Seconds())
	res.set("trace.overhead_share", "share", traced.Seconds()/untraced.Seconds()-1)
	rp.report(res)
	res.set("metrics.resemblance_s", "s", q.resS)
	res.set("metrics.utility_s", "s", q.utilS)
	res.set("metrics.utility_ms_per_target", "ms", 1e3*q.utilS/q.utilTargets)
	res.set("privacy.evaluate_s", "s", q.privS)
	return res, nil
}

// report derives the per-layer metrics from the replay's measurements.
func (r *replay) report(res *result) {
	cfg := r.pipe.Cfg
	clients := len(r.pipe.Clients)
	train := make([]float64, clients)
	for i, d := range r.clientTrain {
		train[i] = d.Seconds()
	}
	res.set("autoencoder.train_step_ms", "ms", ms(r.aeWall)/float64(cfg.AEIters))
	res.set("autoencoder.straggler_ratio", "ratio", quantile(train, 1)/median(train))
	res.set("autoencoder.train_gflop_per_s", "GFLOP/s", r.aeFlops/r.aeWall.Seconds()/1e9)
	res.set("autoencoder.train_allocs_per_step", "count", float64(r.aeMallocs)/float64(cfg.AEIters*clients))
	res.set("autoencoder.fit_share", "share", r.aeWall.Seconds()/r.fitWall.Seconds())
	res.set("autoencoder.decode_us_per_row", "us", 1e3*ms(r.decodeDur)/float64(r.rows))

	res.set("diffusion.train_step_ms", "ms", ms(r.diffWall)/float64(cfg.DiffIters))
	res.set("diffusion.train_gflop_per_s", "GFLOP/s", r.diffFlops/r.diffWall.Seconds()/1e9)
	res.set("diffusion.train_allocs_per_step", "count", float64(r.diffMallocs)/float64(cfg.DiffIters))
	res.set("diffusion.fit_share", "share", r.diffWall.Seconds()/r.fitWall.Seconds())
	res.set("diffusion.sample_ms_per_row", "ms", ms(r.sampleDur)/float64(r.rows))
	res.set("diffusion.sample_gflop_per_s", "GFLOP/s", r.sampleFlops/r.sampleDur.Seconds()/1e9)

	reqs := float64(r.requests)
	res.set("tabular.join_ms", "ms", ms(r.joinDur)/reqs)
	res.set("silo.send_ms", "ms", float64(r.sendNs)/1e6/reqs)
	res.set("silo.recv_wait_ms", "ms", float64(r.recvNs)/1e6/reqs)
	res.set("silo.codec_ms", "ms", float64(r.codecNs)/1e6/reqs)
	res.set("silo.request_overhead_ms", "ms", ms(r.overheadDur)/reqs)
	res.set("silo.ship_s", "s", r.shipWall.Seconds())
	res.set("silo.new_pipeline_s", "s", r.newPipeline.Seconds())
	st := r.pipe.Bus.Stats()
	res.set("silo.msgs", "count", float64(st.Messages))
	for _, k := range []silo.Kind{silo.KindLatents, silo.KindSynthReq, silo.KindSynthLatent} {
		res.set("silo.bytes."+string(k), "B", float64(st.ByKind[k]))
	}
}
