package tensor

import "fmt"

// This file implements the cache-blocked packed GEMM behind the
// steady-state inference path. The right-hand operand — in practice a
// weight matrix that is constant across every batch of a screening job
// — is repacked once into contiguous column panels; the multiply then
// sweeps each panel with an unrolled 8-lane accumulation, so one panel
// (K x 8 elements) stays cache-resident while the A rows stream past
// and the output row accumulates in registers instead of memory.
// Per-element term order is exactly the scalar kernels' ascending-k
// order, which is what keeps pooled-path scores byte-identical to the
// allocating path.
//
// The panel kernel is the DENSE fast path — activations through
// y = x·Wᵀ layers. For sparse A (im2col voxel patches) the scalar
// zero-skip kernel MatMulAcc wins instead: it pays one data-dependent
// branch per A value and skips a whole output row of work, where the
// panel sweep would pay one branch per (value, panel) pair — measured
// 2-4x slower at realistic voxel sparsity. Call sites choose by
// operand character, not size.

// packPanel is the panel width: 8 columns, one 64-byte cache line per
// accumulation row at float64 (half a line at float32, which is the
// memory-traffic win of the f32 path).
const packPanel = 8

// PackedB is a K x N matrix repacked into column panels for
// MatMulAccPacked / MatMulPackedInto. Panel j holds columns
// [j*packPanel, (j+1)*packPanel) stored k-major (row p of the panel is
// contiguous); the last panel is zero-padded. A PackedB is built once
// per (weights, shape) — typically cached in an inference workspace —
// and read concurrently by any number of multiplies.
type PackedB[T Float] struct {
	K, N int
	data []T
}

func (pb *PackedB[T]) init(k, n int) {
	pb.K, pb.N = k, n
	need := (n + packPanel - 1) / packPanel * packPanel * k
	if cap(pb.data) < need {
		pb.data = make([]T, need)
	} else {
		pb.data = pb.data[:need]
	}
}

// Pack fills pb from the row-major K x N matrix b, reusing pb's buffer
// when it is large enough.
func (pb *PackedB[T]) Pack(b *Dense[T]) {
	if b.Rank() != 2 {
		panic("tensor: PackedB.Pack requires a rank-2 tensor")
	}
	k, n := b.Shape[0], b.Shape[1]
	pb.init(k, n)
	for j0 := 0; j0 < n; j0 += packPanel {
		panel := pb.data[j0/packPanel*k*packPanel:]
		w := min(n-j0, packPanel)
		for p := 0; p < k; p++ {
			dst := panel[p*packPanel : p*packPanel+packPanel]
			copy(dst, b.Data[p*n+j0:p*n+j0+w])
			clear(dst[w:])
		}
	}
}

// PackTransposed fills pb with the transpose of the row-major n x k
// float64 matrix held in data (higher-rank weights collapse to [n, k]
// row major, e.g. conv kernels [Out, In*K^3]), converted to T. The
// result is the packed form of the k x n matrix dataᵀ, built without
// materializing the transpose — the packed counterpart of Transpose(w)
// and the B operand of every y = x·Wᵀ layer. For PackedB[float32] this
// is the f64→f32 weight conversion point of the dense products.
func (pb *PackedB[T]) PackTransposed(data []float64, n, k int) {
	if len(data) != n*k {
		panic(fmt.Sprintf("tensor: PackTransposed needs %d elements, got %d", n*k, len(data)))
	}
	pb.init(k, n)
	for j0 := 0; j0 < n; j0 += packPanel {
		panel := pb.data[j0/packPanel*k*packPanel:]
		w := min(n-j0, packPanel)
		for p := 0; p < k; p++ {
			dst := panel[p*packPanel : p*packPanel+packPanel]
			for t := 0; t < w; t++ {
				dst[t] = T(data[(j0+t)*k+p])
			}
			clear(dst[w:])
		}
	}
}

// MatMulAccPacked computes c += a x B for the packed B, preserving
// MatMulAcc's semantics exactly: ascending-k accumulation per output
// element with zero entries of A skipped. The caller owns parallelism
// (disjoint row blocks of c may be filled concurrently via
// matMulPackedRows through MatMul; this entry point is serial).
func MatMulAccPacked[T Float](c, a *Dense[T], pb *PackedB[T]) {
	checkPackedShapes("MatMulAccPacked", c, a, pb)
	matMulPackedRows(c, a, pb, 0, a.Shape[0], true)
}

// MatMulPackedInto computes c = a x B for the packed B, fully
// overwriting c without reading it. No zero-skip is applied, so when
// pb holds Wᵀ (PackTransposed) the result is bitwise MatMulTransB(a, w)
// — the dense-layer forward product.
func MatMulPackedInto[T Float](c, a *Dense[T], pb *PackedB[T]) {
	checkPackedShapes("MatMulPackedInto", c, a, pb)
	matMulPackedRows(c, a, pb, 0, a.Shape[0], false)
}

func checkPackedShapes[T Float](op string, c, a *Dense[T], pb *PackedB[T]) {
	if a.Rank() != 2 || c.Rank() != 2 {
		panic("tensor: " + op + " requires rank-2 tensors")
	}
	if a.Shape[1] != pb.K || c.Shape[0] != a.Shape[0] || c.Shape[1] != pb.N {
		panic(fmt.Sprintf("tensor: %s shapes %v x [%d %d] -> %v", op, a.Shape, pb.K, pb.N, c.Shape))
	}
}

// matMulPackedRows runs the panel kernel over output rows [lo, hi).
// acc selects c += a x B with zero entries of a skipped (the sparse
// accumulating kernels) over c = a x B dense (the layer products).
// Full panels run a panel leaf (leaf.go) that holds the 8 accumulators
// in vector registers across the whole k sweep; the ragged tail runs a
// 4-lane block then scalar lanes in Go. Per-element order is ascending
// k at both widths.
func matMulPackedRows[T Float](c, a *Dense[T], pb *PackedB[T], lo, hi int, acc bool) {
	k, n := pb.K, pb.N
	full := n / packPanel * packPanel
	for j0 := 0; j0 < full; j0 += packPanel {
		panel := pb.data[j0/packPanel*k*packPanel : (j0/packPanel+1)*k*packPanel]
		for i := lo; i < hi; i++ {
			ci, ai := c.Data[i*n+j0:i*n+j0+packPanel], a.Data[i*k:(i+1)*k]
			if acc {
				packedAccSkip(ci, ai, panel)
			} else {
				packedInto(ci, ai, panel)
			}
		}
	}
	if full == n {
		return
	}
	// Tail panel: fewer than packPanel live columns. A 4-lane block
	// covers the common half-panel widths (e.g. graph stages of width
	// 12); the rest runs scalar per lane. Per-element order is still
	// ascending k.
	panel := pb.data[full/packPanel*k*packPanel:]
	t0 := 0
	if n-full >= 4 {
		for i := lo; i < hi; i++ {
			ai := a.Data[i*k : (i+1)*k]
			ci := c.Data[i*n+full : i*n+full+4 : i*n+full+4]
			var s0, s1, s2, s3 T
			if acc {
				s0, s1, s2, s3 = ci[0], ci[1], ci[2], ci[3]
			}
			for p, av := range ai {
				if acc && av == 0 {
					continue
				}
				r := panel[p*packPanel : p*packPanel+4]
				s0 += av * r[0]
				s1 += av * r[1]
				s2 += av * r[2]
				s3 += av * r[3]
			}
			ci[0], ci[1], ci[2], ci[3] = s0, s1, s2, s3
		}
		t0 = 4
	}
	for i := lo; i < hi; i++ {
		ai := a.Data[i*k : (i+1)*k]
		for t := t0; t < n-full; t++ {
			var s T
			if acc {
				s = c.Data[i*n+full+t]
			}
			for p, av := range ai {
				if acc && av == 0 {
					continue
				}
				s += av * panel[p*packPanel+t]
			}
			c.Data[i*n+full+t] = s
		}
	}
}
