package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// axpy32Scalar is the reference semantics of Axpy32: one multiply
// rounding and one add rounding per element, ascending order.
func axpy32Scalar(dst, w []float32, v float32) {
	for i := range dst {
		dst[i] += v * w[i]
	}
}

// TestAxpy32MatchesScalarBitwise pins the vector kernel bit-identical
// to the scalar loop across every tail length the 8-lane block loop
// can leave behind, including zero-length and subnormal-producing
// inputs.
func TestAxpy32MatchesScalarBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for n := 0; n <= 35; n++ {
		dst := make([]float32, n)
		w := make([]float32, n)
		for i := range dst {
			dst[i] = float32(rng.NormFloat64())
			w[i] = float32(rng.NormFloat64())
		}
		v := float32(rng.NormFloat64())
		want := append([]float32(nil), dst...)
		axpy32Scalar(want, w, v)
		Axpy32(dst, w, v)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: Axpy32 diverged from scalar at %d: %v != %v", n, i, dst[i], want[i])
			}
		}
	}
	// Tiny v times tiny w drives lanes subnormal; the vector unit must
	// round them identically.
	dst := []float32{1e-38, -1e-38, 0, 1e-38, -1, 2, -3, 4, 5e-40}
	w := []float32{1e-38, 2e-38, 3e-38, -1e-38, 1e-38, 1, 2, 3, 4}
	want := append([]float32(nil), dst...)
	axpy32Scalar(want, w, 1e-5)
	Axpy32(dst, w, 1e-5)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("subnormal lane %d: %v != %v", i, dst[i], want[i])
		}
	}
}

// TestAxpy32LongerW pins the contract that w may be longer than dst:
// only len(dst) elements are touched.
func TestAxpy32LongerW(t *testing.T) {
	dst := []float32{1, 2, 3}
	w := []float32{10, 20, 30, 40, 50}
	Axpy32(dst, w, 2)
	for i, want := range []float32{21, 42, 63} {
		if dst[i] != want {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], want)
		}
	}
}

// TestAxpy64MatchesScalarBitwise is TestAxpy32MatchesScalarBitwise at
// float64: every tail length the 8-lane block loop can leave behind,
// then subnormal-producing lanes.
func TestAxpy64MatchesScalarBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for n := 0; n <= 35; n++ {
		dst := make([]float64, n)
		w := make([]float64, n)
		for i := range dst {
			dst[i] = rng.NormFloat64()
			w[i] = rng.NormFloat64()
		}
		v := rng.NormFloat64()
		want := append([]float64(nil), dst...)
		axpyRef(want, w, v)
		Axpy64(dst, w, v)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: Axpy64 diverged from scalar at %d: %v != %v", n, i, dst[i], want[i])
			}
		}
	}
	dst := []float64{1e-308, -1e-308, 0, 1e-308, -1, 2, -3, 4, 5e-320}
	w := []float64{1e-308, 2e-308, 3e-308, -1e-308, 1e-308, 1, 2, 3, 4}
	want := append([]float64(nil), dst...)
	axpyRef(want, w, 1e-5)
	Axpy64(dst, w, 1e-5)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("subnormal lane %d: %v != %v", i, dst[i], want[i])
		}
	}
}

func axpyRef[T Float](dst, w []T, v T) {
	for i := range dst {
		dst[i] += v * w[i]
	}
}

// TestLeafShortOperandPanics pins the wrappers' bounds checks: the
// assembly reads whatever lengths it is handed, so an operand too
// short for the call must panic before any memory is touched, at
// every width and on every architecture.
func TestLeafShortOperandPanics(t *testing.T) {
	cases := map[string]func(){
		"Axpy32 short w": func() { Axpy32(make([]float32, 9), make([]float32, 8), 1) },
		"Axpy64 short w": func() { Axpy64(make([]float64, 9), make([]float64, 8), 1) },
		"panel row of 7": func() { packedAccSkip64(make([]float64, 7), make([]float64, 2), make([]float64, 16)) },
		"short panel":    func() { packedInto32(make([]float32, 8), make([]float32, 3), make([]float32, 23)) },
		"short panel f64": func() {
			packedInto64(make([]float64, 8), make([]float64, 3), make([]float64, 23))
		},
		"voxel outside grid": func() {
			ScatterBox(make([]float64, 27*8), make([]float64, 27*8), 1, 8, 3, [3]int{3, 3, 3}, [3]int{1, 3, 1})
		},
		"short accumulator": func() {
			ScatterBox(make([]float32, 27*8-1), make([]float32, 27*8), 1, 8, 3, [3]int{3, 3, 3}, [3]int{2, 2, 2})
		},
		"short kernel block": func() {
			ScatterBox(make([]float64, 27*8), make([]float64, 27*8-1), 1, 8, 3, [3]int{3, 3, 3}, [3]int{1, 1, 1})
		},
	}
	for name, call := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			call()
		})
	}
}

// bitsOf returns v's bit pattern, so NaN lanes compare too.
func bitsOf[T Float](v T) uint64 {
	if is32[T]() {
		return uint64(math.Float32bits(float32(v)))
	}
	return math.Float64bits(float64(v))
}

// panelRef is the Go loop the panel leaves replace: one 8-lane output
// row over ascending p, zero multipliers skipped when acc is set.
func panelRef[T Float](ci, ai, panel []T, acc bool) {
	if !acc {
		clear(ci)
	}
	for p, av := range ai {
		if acc && av == 0 {
			continue
		}
		for j := range ci {
			ci[j] += av * panel[p*8+j]
		}
	}
}

// TestPanelLeavesMatchGoLoop pins both panel leaves at both widths to
// the Go loop bitwise, over k lengths 0-19 with zero, −0 and NaN
// multipliers mixed in: zero-skip must skip only true zeros, and a NaN
// multiplier must be processed (it poisons its lanes), not skipped.
func TestPanelLeavesMatchGoLoop(t *testing.T) {
	testPanelLeaves[float64](t)
	testPanelLeaves[float32](t)
}

func testPanelLeaves[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	special := []float64{0, math.Copysign(0, -1), math.NaN()}
	for k := 0; k <= 19; k++ {
		ai := make([]T, k)
		panel := make([]T, 8*k)
		for p := range ai {
			ai[p] = T(rng.NormFloat64())
			if rng.Intn(3) == 0 {
				ai[p] = T(special[rng.Intn(len(special))])
			}
		}
		for i := range panel {
			panel[i] = T(rng.NormFloat64())
		}
		seed := make([]T, 8)
		for i := range seed {
			seed[i] = T(rng.NormFloat64())
		}
		for _, acc := range []bool{true, false} {
			want := append([]T(nil), seed...)
			got := append([]T(nil), seed...)
			panelRef(want, ai, panel, acc)
			if acc {
				packedAccSkip(got, ai, panel)
			} else {
				packedInto(got, ai, panel)
			}
			for j := range want {
				if bitsOf(got[j]) != bitsOf(want[j]) {
					t.Fatalf("%T k=%d acc=%v lane %d: %v != %v", got[j], k, acc, j, got[j], want[j])
				}
			}
		}
	}
}

// scatterStepRef is the per-step Go loop ScatterBox replaces: every
// kernel offset of the voxel's footprint, bounds-tested one at a time,
// one n-lane update each.
func scatterStepRef[T Float](dst, w []T, v T, n, k int, grid, at [3]int) {
	pad := k / 2
	for kd := 0; kd < k; kd++ {
		zd := at[0] + pad - kd
		for kh := 0; kh < k; kh++ {
			zh := at[1] + pad - kh
			for kw := 0; kw < k; kw++ {
				zw := at[2] + pad - kw
				if zd < 0 || zd >= grid[0] || zh < 0 || zh >= grid[1] || zw < 0 || zw >= grid[2] {
					continue
				}
				pos := ((zd*grid[1]+zh)*grid[2] + zw) * n
				row := ((kd*k+kh)*k + kw) * n
				for o := 0; o < n; o++ {
					dst[pos+o] += w[row+o] * v
				}
			}
		}
	}
}

// TestScatterBoxMatchesStepLoop pins ScatterBox to the per-step loop
// bitwise for every clip box: every voxel of grids 3, 4 and 8, with k
// 3 and 5 and n covering the 8-lane blocks and every tail, at both
// widths. Voxels accumulate into one buffer in sequence, as the
// convolution's do.
func TestScatterBoxMatchesStepLoop(t *testing.T) {
	testScatterBox[float64](t)
	testScatterBox[float32](t)
}

func testScatterBox[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, g := range []int{3, 4, 8} {
		for _, k := range []int{3, 5} {
			for _, n := range []int{1, 6, 8, 12, 16, 32} {
				grid := [3]int{g, g, g}
				w := make([]T, k*k*k*n)
				for i := range w {
					w[i] = T(rng.NormFloat64())
				}
				want := make([]T, g*g*g*n)
				for i := range want {
					want[i] = T(rng.NormFloat64())
				}
				got := append([]T(nil), want...)
				for zd := 0; zd < g; zd++ {
					for zh := 0; zh < g; zh++ {
						for zw := 0; zw < g; zw++ {
							at := [3]int{zd, zh, zw}
							v := T(rng.NormFloat64())
							scatterStepRef(want, w, v, n, k, grid, at)
							ScatterBox(got, w, v, n, k, grid, at)
							for i := range want {
								if bitsOf(got[i]) != bitsOf(want[i]) {
									t.Fatalf("%T grid %d k %d n %d voxel %v: elem %d = %v, want %v",
										got[i], g, k, n, at, i, got[i], want[i])
								}
							}
						}
					}
				}
			}
		}
	}
}
