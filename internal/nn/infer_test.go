package nn

import (
	"math"
	"math/rand"
	"testing"

	"deepfusion/internal/tensor"
)

// inferInput builds a sparse voxel-like batch (many exact zeros, like
// splatted grids) so the scatter conv path is exercised realistically.
func inferInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		if rng.Float64() < 0.2 {
			x.Data[i] = rng.NormFloat64()
		}
	}
	return x
}

// TestForwardInferMatchesForward pins every layer's inference variant
// byte-identical to Forward(x, false) — the foundation of the pooled
// scoring path's golden guarantee.
func TestForwardInferMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := NewWorkspace()

	check := func(name string, want, got *tensor.Tensor) {
		t.Helper()
		if !want.SameShape(got) {
			t.Fatalf("%s: shape %v vs %v", name, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("%s: elem %d: infer %v != forward %v", name, i, got.Data[i], want.Data[i])
			}
		}
	}

	// Conv3D, scatter path (small output) and both kernel sizes.
	for _, k := range []int{3, 5} {
		c := NewConv3D(rng, 2, 3, k)
		x := inferInput(rng, 2, 2, 4, 4, 4)
		check("Conv3D/scatter", c.Forward(x, false), c.ForwardInfer(x, ws))
		ws.Reset()
	}
	// Conv3D, tiled im2col path (output above scatterMaxBytes).
	{
		c := NewConv3D(rng, 1, 64, 3)
		x := inferInput(rng, 1, 1, 41, 41, 41) // 64*41^3*8 > scatterMaxBytes
		if c.Out*x.Dim(2)*x.Dim(3)*x.Dim(4)*8 <= scatterMaxBytes {
			t.Fatalf("test geometry no longer reaches the tiled path")
		}
		check("Conv3D/tiled", c.Forward(x, false), c.ForwardInfer(x, ws))
		ws.Reset()
	}
	// Conv3D, direct reference path.
	{
		c := NewConv3D(rng, 2, 3, 3)
		c.Direct = true
		x := inferInput(rng, 2, 2, 4, 4, 4)
		check("Conv3D/direct", c.Forward(x, false), c.ForwardInfer(x, ws))
		ws.Reset()
	}
	// Dense (widths exercising full panels and the tail).
	for _, out := range []int{1, 7, 8, 19, 32} {
		d := NewDense(rng, 13, out)
		x := inferInput(rng, 4, 13)
		check("Dense", d.Forward(x, false), d.ForwardInfer(x, ws))
		ws.Reset()
	}
	// Activations.
	for _, kind := range []string{ActReLU, ActLReLU, ActSELU} {
		a := NewActivation(kind)
		x := inferInput(rng, 3, 9)
		check("Activation/"+kind, a.Forward(x, false), a.ForwardInfer(x, ws))
		ws.Reset()
	}
	// MaxPool3D.
	{
		m := NewMaxPool3D(2)
		x := inferInput(rng, 2, 3, 4, 4, 4)
		check("MaxPool3D", m.Forward(x, false), m.ForwardInfer(x, ws))
		ws.Reset()
	}
	// BatchNorm in evaluation mode, with non-trivial running stats.
	{
		b := NewBatchNorm(6)
		for j := 0; j < 6; j++ {
			b.RunMean[j] = rng.NormFloat64()
			b.RunVar[j] = 1 + rng.Float64()
		}
		x := inferInput(rng, 5, 6)
		check("BatchNorm", b.Forward(x, false), b.ForwardInfer(x, ws))
		ws.Reset()
	}
	// Dropout is the identity at inference.
	{
		d := NewDropout(rng, 0.5)
		x := inferInput(rng, 3, 4)
		if got := d.ForwardInfer(x, ws); got != x {
			t.Fatalf("Dropout.ForwardInfer should return its input")
		}
	}
	// Flatten + Sequential plumbing.
	{
		s := NewSequential(NewMaxPool3D(2), &Flatten{}, NewDense(rng, 3*2*2*2, 4), NewActivation(ActReLU))
		x := inferInput(rng, 2, 3, 4, 4, 4)
		check("Sequential", s.Forward(x, false), s.ForwardInfer(x, ws))
		ws.Reset()
	}
}

// TestForwardInferZeroAlloc pins the steady state at both widths: a
// warm Infer pass through a conv/pool/dense stack performs zero heap
// allocations.
func TestForwardInferZeroAlloc(t *testing.T) {
	t.Run("f64", testForwardInferZeroAlloc[float64])
	t.Run("f32", testForwardInferZeroAlloc[float32])
}

func testForwardInferZeroAlloc[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	conv := NewConv3D(rng, 2, 8, 3)
	pool := NewMaxPool3D(2)
	flat := &Flatten{}
	dense := NewDense(rng, 8*3*3*3, 5)
	act := NewActivation(ActReLU)
	x := inferInputAt[T](rng, 2, 2, 6, 6, 6)
	ws := NewWorkspace()
	pass := func() {
		ws.Reset()
		h := Infer(conv, x, ws)
		h = Infer(pool, h, ws)
		h = Infer(flat, h, ws)
		Infer(act, Infer(dense, h, ws), ws)
	}
	for i := 0; i < 3; i++ {
		pass()
	}
	if avg := testing.AllocsPerRun(50, pass); avg != 0 {
		t.Fatalf("warm Infer pass allocates %.1f times per run, want 0", avg)
	}
}

// inferInputAt is inferInput at width T: values are drawn in f64 and
// narrowed, so the f64 and f32 inputs of one seed are the same numbers
// up to the narrowing.
func inferInputAt[T tensor.Float](rng *rand.Rand, shape ...int) *tensor.Dense[T] {
	x := tensor.NewFromShape[T](append([]int(nil), shape...))
	x.CopyFrom64(inferInput(rng, shape...))
	return x
}

// randInput32Pair builds the same random input at both precisions
// (f32 values widened back to f64, so the inputs are bit-equal).
func randInput32Pair(rng *rand.Rand, sparse bool, shape ...int) (*tensor.Tensor, *tensor.F32) {
	x32 := tensor.NewF32(shape...)
	x64 := tensor.New(shape...)
	for i := range x32.Data {
		v := float32(rng.NormFloat64())
		if sparse && rng.Intn(3) != 0 {
			v = 0 // voxel-like sparsity exercises the zero-skip paths
		}
		x32.Data[i] = v
		x64.Data[i] = float64(v)
	}
	return x64, x32
}

// maxRelErr32 returns max |got-want| / max(1, |want|) over the pair.
func maxRelErr32(got *tensor.F32, want *tensor.Tensor) float64 {
	worst := 0.0
	for i, w := range want.Data {
		den := math.Abs(w)
		if den < 1 {
			den = 1
		}
		if e := math.Abs(float64(got.Data[i])-w) / den; e > worst {
			worst = e
		}
	}
	return worst
}

// TestConv3DInfer32BoundaryClipping pins the scatter and tile
// convolutions against the direct reference bitwise, at both widths:
// surviving terms arrive in the same ascending (ci, input-position)
// order in all three kernels, so boundary clipping must not change a
// single bit. Grids are chosen so kernel footprints clip on every
// face.
func TestConv3DInfer32BoundaryClipping(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cases := []struct {
		name        string
		in, out, k  int
		d, h, w     int
		wantScatter bool // which algorithm Infer should pick
	}{
		// 4^3 grid with k=5: footprints clip on both faces of every axis.
		{"scatter-k5-tiny", 2, 8, 5, 4, 4, 4, true},
		// Non-unrollable channel count exercises the vector kernel's
		// scalar tail lanes.
		{"scatter-k3-odd-out", 3, 6, 3, 5, 4, 3, true},
		// 41^3 at Out=64 exceeds scatterMaxBytes -> tile path.
		{"tile-k3", 1, 64, 3, 41, 41, 41, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConv3D(rng, tc.in, tc.out, tc.k)
			dhw := tc.d * tc.h * tc.w
			if got := tc.out*dhw*8 <= scatterMaxBytes; got != tc.wantScatter {
				t.Fatalf("algorithm selection: scatter=%v, want %v", got, tc.wantScatter)
			}
			x64, x32 := randInput32Pair(rng, true, 2, tc.in, tc.d, tc.h, tc.w)
			ws := NewWorkspace()
			checkConvMatchesDirect(t, c, x64, ws)
			checkConvMatchesDirect(t, c, x32, ws)
		})
	}
}

// checkConvMatchesDirect compares Infer's algorithm choice with the
// direct reference at x's width, bit for bit.
func checkConvMatchesDirect[T tensor.Float](t *testing.T, c *Conv3D, x *tensor.Dense[T], ws *Workspace) {
	t.Helper()
	y := Infer(c, x, ws)
	ref := tensor.NewFromShape[T]([]int{x.Dim(0), c.Out, x.Dim(2), x.Dim(3), x.Dim(4)})
	b := BuffersOf[T](ws)
	directInto(c, x, ref, b.Vec(c.W.Value), b.Vec(c.B.Value))
	for i := range ref.Data {
		if y.Data[i] != ref.Data[i] {
			t.Fatalf("%T elem %d = %g, want %g (bitwise)", x, i, y.Data[i], ref.Data[i])
		}
	}
}

// TestInfer32MatchesF64Tolerance pins the f32 accumulation error of
// every layer kind against the f64 reference at ≤1e-4 relative — the
// explicit per-layer tolerance contract of the fast path (the funnel
// repeats this per pose at the fusion level).
func TestInfer32MatchesF64Tolerance(t *testing.T) {
	const tol = 1e-4
	rng := rand.New(rand.NewSource(72))

	t.Run("dense-chain", func(t *testing.T) {
		seq := NewSequential(
			NewDense(rng, 33, 20),
			NewActivation(ActReLU),
			NewDense(rng, 20, 12),
			NewActivation(ActLReLU),
			NewDense(rng, 12, 7),
			NewActivation(ActSELU),
			NewDropout(rng, 0.25),
			NewDense(rng, 7, 1),
		)
		x64, x32 := randInput32Pair(rng, false, 9, 33)
		ws := NewWorkspace()
		if e := maxRelErr32(Infer(seq, x32, ws), Infer(seq, x64, ws)); e > tol {
			t.Fatalf("dense chain rel err %g > %g", e, tol)
		}
	})

	t.Run("batchnorm", func(t *testing.T) {
		bn := NewBatchNorm(11)
		for j := 0; j < 11; j++ {
			bn.RunMean[j] = rng.NormFloat64()
			bn.RunVar[j] = 0.5 + rng.Float64()
			bn.Gamma.Value.Data[j] = 1 + 0.3*rng.NormFloat64()
			bn.Beta.Value.Data[j] = rng.NormFloat64()
		}
		x64, x32 := randInput32Pair(rng, false, 6, 11)
		ws := NewWorkspace()
		if e := maxRelErr32(Infer(bn, x32, ws), Infer(bn, x64, ws)); e > tol {
			t.Fatalf("batchnorm rel err %g > %g", e, tol)
		}
	})

	t.Run("conv-pool-flatten", func(t *testing.T) {
		stack := NewSequential(NewConv3D(rng, 3, 8, 3), NewMaxPool3D(2), &Flatten{})
		x64, x32 := randInput32Pair(rng, true, 2, 3, 6, 6, 6)
		ws := NewWorkspace()
		want, got := Infer(stack, x64, ws), Infer(stack, x32, ws)
		if want.Dim(0) != got.Dim(0) || want.Dim(1) != got.Dim(1) {
			t.Fatalf("shape %v vs %v", got.Shape, want.Shape)
		}
		if e := maxRelErr32(got, want); e > tol {
			t.Fatalf("conv/pool rel err %g > %g", e, tol)
		}
	})
}

// TestInferUnknownLayerPanics pins the single Infer contract: a layer
// kind without an inference path panics rather than silently falling
// back to the allocating Forward.
func TestInferUnknownLayerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Infer of an unknown layer did not panic")
		}
	}()
	Infer(NewSequential(unknownLayer{}), tensor.New(1, 1), NewWorkspace())
}

type unknownLayer struct{}

func (unknownLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }
func (unknownLayer) Backward(g *tensor.Tensor) *tensor.Tensor            { return g }
func (unknownLayer) Params() []*Param                                    { return nil }
