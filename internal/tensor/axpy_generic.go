//go:build !amd64

package tensor

// Portable width leaves for the SSE kernels in axpy_amd64.s: the same
// loops in Go, with the same per-element roundings and term order, so
// results match the vector path bitwise (see axpy_amd64.go).

// Axpy32 computes dst[i] += v * w[i] for every element of dst; w must
// be at least as long as dst.
func Axpy32(dst, w []float32, v float32) { axpyGo(dst, w, v) }

// Axpy64 is Axpy32 at float64.
func Axpy64(dst, w []float64, v float64) { axpyGo(dst, w, v) }

func packedAccSkip32(ci, ai, panel []float32) { packedAccSkipGo(ci, ai, panel) }
func packedAccSkip64(ci, ai, panel []float64) { packedAccSkipGo(ci, ai, panel) }
func packedInto32(ci, ai, panel []float32)    { packedIntoGo(ci, ai, panel) }
func packedInto64(ci, ai, panel []float64)    { packedIntoGo(ci, ai, panel) }

func scatterBox32(dst, w []float32, v float32, f footprint) { scatterBoxGo(dst, w, v, f) }
func scatterBox64(dst, w []float64, v float64, f footprint) { scatterBoxGo(dst, w, v, f) }

func axpyGo[T Float](dst, w []T, v T) {
	for i := range dst {
		dst[i] += v * w[i]
	}
}

// packedAccSkipGo accumulates one output row of a full 8-column panel
// with zero ai entries skipped.
func packedAccSkipGo[T Float](ci, ai, panel []T) {
	s0, s1, s2, s3 := ci[0], ci[1], ci[2], ci[3]
	s4, s5, s6, s7 := ci[4], ci[5], ci[6], ci[7]
	for p, av := range ai {
		if av == 0 {
			continue
		}
		r := panel[p*8 : p*8+8]
		s0 += av * r[0]
		s1 += av * r[1]
		s2 += av * r[2]
		s3 += av * r[3]
		s4 += av * r[4]
		s5 += av * r[5]
		s6 += av * r[6]
		s7 += av * r[7]
	}
	ci[0], ci[1], ci[2], ci[3] = s0, s1, s2, s3
	ci[4], ci[5], ci[6], ci[7] = s4, s5, s6, s7
}

// packedIntoGo overwrites one output row of a full 8-column panel,
// dense ascending-p accumulation.
func packedIntoGo[T Float](ci, ai, panel []T) {
	var s0, s1, s2, s3, s4, s5, s6, s7 T
	for p, av := range ai {
		r := panel[p*8 : p*8+8]
		s0 += av * r[0]
		s1 += av * r[1]
		s2 += av * r[2]
		s3 += av * r[3]
		s4 += av * r[4]
		s5 += av * r[5]
		s6 += av * r[6]
		s7 += av * r[7]
	}
	ci[0], ci[1], ci[2], ci[3] = s0, s1, s2, s3
	ci[4], ci[5], ci[6], ci[7] = s4, s5, s6, s7
}

// scatterBoxGo walks the footprint row by row, one n-lane update per
// kernel offset.
func scatterBoxGo[T Float](dst, w []T, v T, f footprint) {
	n := f.n
	for a := 0; a < f.nd; a++ {
		for b := 0; b < f.nh; b++ {
			dOff, wOff := f.d0+a*f.dd+b*f.dh, f.w0+a*f.wd+b*f.wh
			for c := 0; c < f.nw; c++ {
				dr := dst[dOff : dOff+n : dOff+n]
				for o, wv := range w[wOff : wOff+n] {
					dr[o] += wv * v
				}
				dOff -= n
				wOff += n
			}
		}
	}
}
