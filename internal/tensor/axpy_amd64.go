package tensor

import "fmt"

// This file declares the amd64 width leaves of the generic kernels:
// the only steps whose implementation differs by element width. Each
// exists at both widths — SSE2 MULPD/ADDPD at float64, SSE
// MULPS/ADDPS at float32, both baseline on every amd64 (GOAMD64=v1),
// so there is no feature detection and no second code path. The
// generic dispatchers in leaf.go pick the width per instantiation.
//
// Every leaf keeps the scalar loop's bits. Lanes are independent
// accumulators, and each lane performs exactly one multiply rounding
// and then one add rounding, in the same term order as the Go loop it
// replaced — and the Go compiler never fuses that loop into an FMA on
// amd64, so the two roundings are what the scalar code computes too.
//
// The assembly does no bounds checks. The Go wrappers below check the
// extreme offsets once per call and panic as an out-of-range index
// would; ScatterBox checks its footprint the same way before calling
// scatterBox32/64.

// Axpy32 computes dst[i] += v * w[i] for every element of dst; w must
// be at least as long as dst. It is the lane-parallel inner kernel of
// the zero-skip GEMM rows at float32.
func Axpy32(dst, w []float32, v float32) {
	if len(dst) > 0 {
		_ = w[len(dst)-1]
	}
	axpy32SSE(dst, w, v)
}

// Axpy64 is Axpy32 at float64.
func Axpy64(dst, w []float64, v float64) {
	if len(dst) > 0 {
		_ = w[len(dst)-1]
	}
	axpy64SSE2(dst, w, v)
}

// packedAccSkip32 accumulates one output row of a full 8-column panel:
// ci[0:8] += ai[p] * panel[p*8 : p*8+8] for ascending p, skipping
// zero ai entries — the accumulating inner loop of matMulPackedRows,
// with the 8 accumulators held in vector registers across the whole k
// sweep. Zero-skip tests NaN-correctly (a NaN multiplier is processed,
// matching the scalar loop's av == 0 comparison). ci must hold exactly
// 8 lanes, panel at least len(ai)*8.
func packedAccSkip32(ci, ai, panel []float32) {
	checkPanel(ci, ai, panel)
	packedAccSkip32SSE(ci, ai, panel)
}

// packedAccSkip64 is packedAccSkip32 at float64.
func packedAccSkip64(ci, ai, panel []float64) {
	checkPanel(ci, ai, panel)
	packedAccSkip64SSE2(ci, ai, panel)
}

// packedInto32 overwrites one output row of a full 8-column panel:
// ci[0:8] = sum over p of ai[p] * panel[p*8 : p*8+8], ascending p, no
// zero-skip — the overwriting inner loop of MatMulPackedInto.
func packedInto32(ci, ai, panel []float32) {
	checkPanel(ci, ai, panel)
	packedInto32SSE(ci, ai, panel)
}

// packedInto64 is packedInto32 at float64.
func packedInto64(ci, ai, panel []float64) {
	checkPanel(ci, ai, panel)
	packedInto64SSE2(ci, ai, panel)
}

// checkPanel panics unless ci is one 8-lane panel row and panel holds
// at least len(ai) panel rows.
func checkPanel[T Float](ci, ai, panel []T) {
	if len(ci) != packPanel {
		panic(fmt.Sprintf("tensor: panel row has %d lanes, want %d", len(ci), packPanel))
	}
	if len(ai) > 0 {
		_ = panel[len(ai)*packPanel-1]
	}
}

//go:noescape
func axpy32SSE(dst, w []float32, v float32)

//go:noescape
func axpy64SSE2(dst, w []float64, v float64)

//go:noescape
func packedAccSkip32SSE(ci, ai, panel []float32)

//go:noescape
func packedAccSkip64SSE2(ci, ai, panel []float64)

//go:noescape
func packedInto32SSE(ci, ai, panel []float32)

//go:noescape
func packedInto64SSE2(ci, ai, panel []float64)

// scatterBox32 runs the footprint walk f over dst and w (see
// footprint); ScatterBox has checked every row it touches.
//
//go:noescape
func scatterBox32(dst, w []float32, v float32, f footprint)

// scatterBox64 is scatterBox32 at float64.
//
//go:noescape
func scatterBox64(dst, w []float64, v float64, f footprint)
