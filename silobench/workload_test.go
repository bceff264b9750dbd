package main

import (
	"math"
	"sort"
	"testing"
)

// TestRequestCycle checks the request mix: ¾ of each cycle in 8–32 rows,
// ¼ in 256–512, the same rows in every cycle, and p50 (from one cycle on)
// and p90 (from three) taken between two requests of one size.
func TestRequestCycle(t *testing.T) {
	rng := mixRng(1)
	var sizes []int
	for c := 1; c <= 7; c++ {
		cycle := requestCycle(rng)
		small, rows := 0, 0
		for _, n := range cycle {
			switch {
			case n >= 8 && n <= 32:
				small++
			case n < 256 || n > 512:
				t.Fatalf("size %d outside both ranges", n)
			}
			rows += n
		}
		if len(cycle) != 16 || small != 12 || rows != 1776 {
			t.Fatalf("cycle %v: %d requests, %d small, %d rows; want 16, 12, 1776", cycle, len(cycle), small, rows)
		}
		sizes = append(sizes, cycle...)
		sorted := append([]int(nil), sizes...)
		sort.Ints(sorted)
		for _, p := range []struct {
			q    float64
			from int
		}{{0.5, 1}, {0.9, 3}} {
			if c < p.from {
				continue
			}
			pos := p.q * float64(len(sorted)-1)
			lo, hi := sorted[int(math.Floor(pos))], sorted[int(math.Ceil(pos))]
			if lo != hi {
				t.Errorf("%d cycles: q%.1f falls between sizes %d and %d", c, p.q, lo, hi)
			}
		}
	}
}
