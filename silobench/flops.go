package main

import (
	"silofuse/internal/autoencoder"
	"silofuse/internal/diffusion"
	"silofuse/internal/tabular"
)

// FLOP counts derived from layer shapes. They are computed from the model
// configuration, not counted by hardware, and cover the dense work only:
// Linear forward/backward (including the timestep-embedding projection of
// the diffusion backbone) and the Adam update. Activations, dropout, loss
// heads and data movement are left out, so a *_gflop_per_s rate is a lower
// bound on the arithmetic the kernels actually perform.

// adamFlopsPerParam counts the arithmetic of one nn.Adam.Step per scalar:
// first moment (2 mul + 1 add), second moment (3 mul + 1 add), the two bias
// corrections (2 div), sqrt, +eps, the ratio, ×LR and the subtraction.
const adamFlopsPerParam = 14

// linearShape is one nn.Linear layer, in → out.
type linearShape struct{ in, out int }

// params returns the layer's trainable scalar count (weights + bias).
func (l linearShape) params() float64 { return float64(l.in*l.out + l.out) }

// forward counts y = xW + b over b rows: the matmul plus the bias add.
func (l linearShape) forward(b int) float64 {
	return 2*float64(b*l.in*l.out) + float64(b*l.out)
}

// backward counts nn.Linear.Backward over b rows: dW = xᵀg, the W.Grad
// accumulation, the bias column sums and accumulation, and dX = gWᵀ.
func (l linearShape) backward(b int) float64 {
	return 4*float64(b*l.in*l.out) + float64(l.in*l.out) + float64(b*l.out) + float64(l.out)
}

// trainStepFlops is one forward + backward pass over b rows through layers
// plus one Adam update of all their parameters.
func trainStepFlops(layers []linearShape, b int) float64 {
	var f float64
	for _, l := range layers {
		f += l.forward(b) + l.backward(b) + adamFlopsPerParam*l.params()
	}
	return f
}

// forwardFlops is one inference pass over b rows through layers.
func forwardFlops(layers []linearShape, b int) float64 {
	var f float64
	for _, l := range layers {
		f += l.forward(b)
	}
	return f
}

// aeLayers lists one client autoencoder's Linear layers (see
// autoencoder.New): encoder in→H→E→L, decoder L→E→H→heads, where the head
// width is two outputs (mean, log-variance) per numeric column plus one
// logit per category.
func aeLayers(local *tabular.Schema, inWidth int, cfg autoencoder.Config) []linearShape {
	heads := 0
	for _, c := range local.Columns {
		if c.Kind == tabular.Numeric {
			heads += 2
		} else {
			heads += c.Cardinality
		}
	}
	latent := cfg.Latent
	if latent <= 0 {
		latent = local.NumColumns()
	}
	return []linearShape{
		{inWidth, cfg.Hidden}, {cfg.Hidden, cfg.Embed}, {cfg.Embed, latent},
		{latent, cfg.Embed}, {cfg.Embed, cfg.Hidden}, {cfg.Hidden, heads},
	}
}

// diffusionLayers lists the DiffusionMLP's Linear layers (see
// nn.NewDiffusionMLP): the input projection, the timestep-embedding
// projection, Depth hidden blocks and the output projection.
func diffusionLayers(cfg diffusion.ModelConfig) []linearShape {
	layers := []linearShape{{cfg.Dim, cfg.Hidden}, {cfg.TimeDim, cfg.Hidden}}
	for i := 0; i < cfg.Depth; i++ {
		layers = append(layers, linearShape{cfg.Hidden, cfg.Hidden})
	}
	return append(layers, linearShape{cfg.Hidden, cfg.Dim})
}

// sampleFlops is the backbone arithmetic of denoising n rows over steps
// inference steps (one forward pass per step).
func sampleFlops(cfg diffusion.ModelConfig, n, steps int) float64 {
	return float64(steps) * forwardFlops(diffusionLayers(cfg), n)
}
