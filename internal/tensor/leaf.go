package tensor

import "fmt"

// This file holds the generic dispatchers over the width leaves
// (axpy_amd64.s, with portable twins in axpy_generic.go). Each branch
// on is32 folds to a constant per instantiation, so a generic kernel
// calls straight into its own width's leaf.

func axpy[T Float](dst, w []T, v T) {
	if is32[T]() {
		Axpy32(as32(dst), as32(w), float32(v))
		return
	}
	Axpy64(as64(dst), as64(w), float64(v))
}

func packedAccSkip[T Float](ci, ai, panel []T) {
	if is32[T]() {
		packedAccSkip32(as32(ci), as32(ai), as32(panel))
		return
	}
	packedAccSkip64(as64(ci), as64(ai), as64(panel))
}

func packedInto[T Float](ci, ai, panel []T) {
	if is32[T]() {
		packedInto32(as32(ci), as32(ai), as32(panel))
		return
	}
	packedInto64(as64(ci), as64(ai), as64(panel))
}

// footprint is one voxel's clipped kernel footprint resolved into a
// walk over rows of n lanes: nd×nh×nw rows, where row (a, b, c) sits
// at element offset d0 + a*dd + b*dh - c*n of the accumulator and
// w0 + a*wd + b*wh + c*n of the kernel block. The assembly leaves read
// it field by field; keep the order in step with axpy_amd64.s.
type footprint struct {
	n, nd, nh, nw int
	d0, dd, dh    int
	w0, wd, wh    int
}

// ScatterBox adds v·w into one input voxel's k×k×k kernel footprint:
// for every kernel offset (kd, kh, kw) whose mirrored output position
// (at[0]+pad-kd, at[1]+pad-kh, at[2]+pad-kw), pad = k/2, lies inside
// grid, the n lanes of dst at that position gain v times the n lanes
// of w at that offset. dst is a position-major [grid volume, n]
// accumulator and w one input channel's [k³, n] kernel block; at must
// lie inside grid.
//
// It is the sparse-scatter convolution's width leaf, and the whole
// clipped footprint is one call: at production filter counts (n = 8 or
// 16) a call per kernel offset costs as much as the vector width saves.
// A footprint touches each output position at most once, and each lane
// takes one multiply and one add rounding, so every output element
// still receives its terms in the caller's order, bit for bit.
func ScatterBox[T Float](dst, w []T, v T, n, k int, grid, at [3]int) {
	for i := range at {
		if uint(at[i]) >= uint(grid[i]) {
			panic(fmt.Sprintf("tensor: ScatterBox voxel %v outside grid %v", at, grid))
		}
	}
	pad := k / 2
	dLo, dHi := clipK(at[0], pad, grid[0], k)
	hLo, hHi := clipK(at[1], pad, grid[1], k)
	wLo, wHi := clipK(at[2], pad, grid[2], k)
	f := footprint{
		n: n, nd: dHi - dLo + 1, nh: hHi - hLo + 1, nw: wHi - wLo + 1,
		d0: (((at[0]+pad-dLo)*grid[1]+at[1]+pad-hLo)*grid[2] + at[2] + pad - wLo) * n,
		dd: -grid[1] * grid[2] * n,
		dh: -grid[2] * n,
		w0: ((dLo*k+hLo)*k + wLo) * n,
		wd: k * k * n,
		wh: k * n,
	}
	if n <= 0 || f.nd <= 0 || f.nh <= 0 || f.nw <= 0 {
		return
	}
	// The walk's first row is its highest accumulator row and lowest
	// kernel row; its last row is the other way round.
	dLast := f.d0 + (f.nd-1)*f.dd + (f.nh-1)*f.dh - (f.nw-1)*n
	wLast := f.w0 + (f.nd-1)*f.wd + (f.nh-1)*f.wh + (f.nw-1)*n
	_, _ = dst[dLast], dst[f.d0+n-1]
	_, _ = w[f.w0], w[wLast+n-1]
	if is32[T]() {
		scatterBox32(as32(dst), as32(w), float32(v), f)
		return
	}
	scatterBox64(as64(dst), as64(w), float64(v), f)
}

// clipK returns the inclusive kernel-offset range [lo, hi] for which
// the mirrored position i+pad-k stays inside [0, dim).
func clipK(i, pad, dim, k int) (lo, hi int) {
	return max(i+pad-dim+1, 0), min(i+pad, k-1)
}
