package tensor

// This file declares the float32 width leaves of the generic kernels:
// the only steps whose implementation differs by element width. The
// generic code picks them per instantiation (see Is32), so the float64
// instantiation compiles to the pure-Go loops and never reaches here.

// Axpy32 computes dst[i] += v * w[i] for every element of dst; w must
// be at least as long as dst. It is the lane-parallel inner kernel of
// the f32 fast path (zero-skip GEMM rows, scatter-convolution channel
// accumulation): each lane is an independent accumulator, so the
// 4-wide SSE implementation performs exactly one multiply rounding
// and one add rounding per element in the same order as the scalar
// loop — results are bit-identical, only the instruction width
// changes. SSE is baseline on amd64 (GOAMD64=v1), so no feature
// detection is needed. The f64 reference deliberately keeps the
// pure-Go scalar loops: its accumulation is pinned bitwise by the
// golden tests, and twice-as-many-lanes-per-register is precisely the
// half-width advantage this kernel exists to collect.
//
//go:noescape
func Axpy32(dst, w []float32, v float32)

// packedAccSkip32 accumulates one output row of a full 8-column panel:
// ci[0:8] += ai[p] * panel[p*8 : p*8+8] for ascending p, skipping
// zero ai entries — the accumulating inner loop of matMulPackedRows at
// float32, with the 8 accumulators held in two vector registers across the
// whole k sweep. Zero-skip tests NaN-correctly (a NaN multiplier is
// processed, matching the scalar loop's av == 0 comparison). ci must
// hold exactly 8 lanes, panel len(ai)*8.
//
//go:noescape
func packedAccSkip32(ci, ai, panel []float32)

// packedInto32 overwrites one output row of a full 8-column panel:
// ci[0:8] = sum over p of ai[p] * panel[p*8 : p*8+8], ascending p, no
// zero-skip — the overwriting inner loop of MatMulPackedInto at
// float32.
//
//go:noescape
func packedInto32(ci, ai, panel []float32)
