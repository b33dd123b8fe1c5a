package tensor

import (
	"math/rand"
	"testing"
)

// BenchmarkMatMulPacked pairs the f64 reference panel GEMM against the
// f32 fast path on the dense-layer shape the precision trajectory
// records (cmd/benchreport/kernels.go): m=8, k=2048, n=512 — the B
// panel spills the cache, so the speedup is the memory-traffic win of
// halving the element width. `make bench-precision` runs this pair.
func BenchmarkMatMulPacked(b *testing.B) {
	const m, k, n = 8, 2048, 512
	rng := rand.New(rand.NewSource(61))
	a := New(m, k)
	bm := New(k, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range bm.Data {
		bm.Data[i] = rng.NormFloat64()
	}

	b.Run("f64", func(b *testing.B) { benchMatMulPacked(b, a, bm) })
	b.Run("f32", func(b *testing.B) {
		a32, bm32 := NewF32(m, k), NewF32(k, n)
		a32.CopyFrom64(a)
		bm32.CopyFrom64(bm)
		benchMatMulPacked(b, a32, bm32)
	})
}

func benchMatMulPacked[T Float](b *testing.B, a, bm *Dense[T]) {
	b.ReportAllocs()
	var pb PackedB[T]
	pb.Pack(bm)
	c := NewFromShape[T]([]int{a.Dim(0), bm.Dim(1)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulPackedInto(c, a, &pb)
	}
}
