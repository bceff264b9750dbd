package main

import (
	"math/rand"
	"testing"

	"silofuse/internal/autoencoder"
	"silofuse/internal/diffusion"
	"silofuse/internal/nn"
	"silofuse/internal/tabular"
	"silofuse/internal/tensor"
)

// TestDiffusionFlopsHandCount pins the diffusion count for Dim 2, Hidden 3,
// Depth 1, TimeDim 2 and one row. Per layer in→out, b=1:
// forward 2·in·out + out, backward 4·in·out + in·out + 2·out, Adam
// 14·(in·out + out).
//
//	in 2→3:   15 + 36 + 126 = 177
//	time 2→3: 15 + 36 + 126 = 177
//	block 3→3: 21 + 51 + 168 = 240
//	out 3→2:  14 + 34 + 112 = 160
func TestDiffusionFlopsHandCount(t *testing.T) {
	cfg := diffusion.ModelConfig{Dim: 2, Hidden: 3, Depth: 1, TimeDim: 2, T: 10}
	if got := trainStepFlops(diffusionLayers(cfg), 1); got != 754 { //silofuse:bitwise-ok small integer-valued counts are exact
		t.Errorf("train step = %v FLOPs, want 754", got)
	}
	// Two denoising steps of one row: 2 × (15 + 15 + 21 + 14).
	if got := sampleFlops(cfg, 1, 2); got != 130 { //silofuse:bitwise-ok small integer-valued counts are exact
		t.Errorf("sampling = %v FLOPs, want 130", got)
	}
}

// TestAutoencoderFlopsHandCount pins the count for a client holding one
// numeric and one 3-way categorical column (input 1+3 = 4, heads 2+3 = 5)
// with Hidden 2, Embed 1 and Latent 2, one row:
//
//	4→2: 18 + 44 + 140 = 202
//	2→1:  5 + 12 +  42 =  59 (twice)
//	1→2:  6 + 14 +  56 =  76 (twice)
//	2→5: 25 + 60 + 210 = 295
func TestAutoencoderFlopsHandCount(t *testing.T) {
	schema := tabular.MustSchema([]tabular.Column{
		{Name: "n", Kind: tabular.Numeric},
		{Name: "c", Kind: tabular.Categorical, Cardinality: 3},
	})
	cfg := autoencoder.Config{Hidden: 2, Embed: 1, Latent: 2}
	if got := trainStepFlops(aeLayers(schema, 4, cfg), 1); got != 767 { //silofuse:bitwise-ok small integer-valued counts are exact
		t.Errorf("train step = %v FLOPs, want 767", got)
	}
}

// TestLayerShapesMatchModels checks the shape lists against the models the
// program builds: equal parameter counts mean the FLOP formulas describe
// the real architectures.
func TestLayerShapesMatchModels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	schema := tabular.MustSchema([]tabular.Column{
		{Name: "n0", Kind: tabular.Numeric},
		{Name: "c0", Kind: tabular.Categorical, Cardinality: 4},
		{Name: "n1", Kind: tabular.Numeric},
	})
	data := tensor.New(6, 3)
	for i := 0; i < 6; i++ {
		data.Set(i, 0, float64(i))
		data.Set(i, 1, float64(i%4))
		data.Set(i, 2, -float64(i))
	}
	tbl, err := tabular.NewTable(schema, data)
	if err != nil {
		t.Fatal(err)
	}
	acfg := autoencoder.Config{Hidden: 8, Embed: 4, LR: 1e-3}
	ae := autoencoder.New(rng, tbl, acfg)
	var want float64
	for _, l := range aeLayers(schema, ae.Enc.Width(), ae.Cfg) {
		want += l.params()
	}
	if got := float64(ae.ParamCount()); got != want { //silofuse:bitwise-ok integer parameter counts
		t.Errorf("autoencoder has %v parameters, shapes give %v", got, want)
	}

	dcfg := diffusion.ModelConfig{Dim: 5, Hidden: 16, Depth: 3, TimeDim: 8, T: 20, LR: 1e-3}
	m := diffusion.NewModel(rng, dcfg)
	want = 0
	for _, l := range diffusionLayers(dcfg) {
		want += l.params()
	}
	if got := float64(nn.ParamCount(m.Net.Params())); got != want { //silofuse:bitwise-ok integer parameter counts
		t.Errorf("diffusion backbone has %v parameters, shapes give %v", got, want)
	}
}
