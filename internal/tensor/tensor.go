// Package tensor provides a minimal n-dimensional dense tensor
// together with the linear-algebra kernels the neural network layers
// in this repository are built on.
//
// The package is deliberately small: row-major contiguous storage, a
// handful of element-wise operations, matrix multiplication, and a
// parallel-for helper used by the compute-heavy kernels. It plays the
// role PyTorch's ATen plays for the original FAST/Deep Fusion code.
//
// Storage is generic over the element width. Training and the
// verified reference forward pass run on Tensor (float64); the
// inference fast path runs the same kernels on F32 (float32). Each
// kernel exists once; the few steps that really differ by width (the
// SSE leaves in axpy_amd64.s) are picked per instantiation at compile
// time, never per element.
package tensor

import (
	"fmt"
	"math"
	"unsafe"
)

// Float is the element-width constraint of every generic kernel.
type Float interface{ float32 | float64 }

// Dense is a dense, row-major n-dimensional array of T.
// The zero value is an empty tensor with no shape.
type Dense[T Float] struct {
	Shape []int
	Data  []T
}

// Tensor is the float64 tensor of training and the reference path.
type Tensor = Dense[float64]

// F32 is the float32 tensor of the inference fast path.
type F32 = Dense[float32]

// is32 reports whether T is float32. unsafe.Sizeof of a type-parameter
// value is a constant within each compiled instantiation, so a branch
// on is32 folds away at compile time: the float64 code never carries
// the float32 leaf and vice versa. It is how a generic kernel picks
// its width leaves (leaf.go) once per instantiation instead of per
// element.
func is32[T Float]() bool {
	var z T
	return unsafe.Sizeof(z) == 4
}

// as32 reinterprets s as []float32 — valid only under an is32 branch,
// where T is float32 — so a generic kernel can hand its operands to a
// float32 leaf. The slice header is reused as is: no copy, no checks,
// no code.
func as32[T Float](s []T) []float32 {
	return *(*[]float32)(unsafe.Pointer(&s))
}

// as64 is as32 for the float64 leaves, valid only where is32 is false.
func as64[T Float](s []T) []float64 {
	return *(*[]float64)(unsafe.Pointer(&s))
}

// New returns a zero-filled float64 tensor with the given shape.
// It panics if any dimension is negative. The variadic shape is
// defensively copied (callers may pass a retained slice via New(s...));
// code that already owns a fresh shape slice uses NewFromShape to skip
// the copy.
func New(shape ...int) *Tensor {
	return NewFromShape[float64](append([]int(nil), shape...))
}

// NewF32 returns a zero-filled float32 tensor with the given shape,
// copying the shape like New.
func NewF32(shape ...int) *F32 {
	return NewFromShape[float32](append([]int(nil), shape...))
}

// NewFromShape is the single-shot constructor behind New and NewF32:
// it takes ownership of shape (no defensive copy), so building a
// tensor costs exactly one data allocation plus the header. The caller
// must not retain or mutate shape afterwards.
func NewFromShape[T Float](shape []int) *Dense[T] {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Dense[T]{Shape: shape, Data: make([]T, n)}
}

// FromSlice wraps data in a tensor with the given shape.
//
// Aliasing contract: the slice is used directly, never copied — the
// tensor and the caller share one buffer, writes through either are
// visible to both, and the caller must keep the slice alive and
// unrestructured for the life of the tensor. This is what lets kernels
// carve sub-tile views out of preallocated scratch without allocating.
// It panics if the length does not match the shape.
func FromSlice[T Float](data []T, shape ...int) *Dense[T] {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v requires %d elements, got %d", shape, n, len(data)))
	}
	return &Dense[T]{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the total number of elements.
func (t *Dense[T]) Len() int { return len(t.Data) }

// Dim returns the size of dimension i.
func (t *Dense[T]) Dim(i int) int { return t.Shape[i] }

// Rank returns the number of dimensions.
func (t *Dense[T]) Rank() int { return len(t.Shape) }

// SameShape reports whether t and o have identical shapes.
func (t *Dense[T]) SameShape(o *Dense[T]) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if o.Shape[i] != d {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of t.
func (t *Dense[T]) Clone() *Dense[T] {
	c := NewFromShape[T](append([]int(nil), t.Shape...))
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t with a new shape covering the same data.
// It panics if the element counts differ.
func (t *Dense[T]) Reshape(shape ...int) *Dense[T] {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.Shape, len(t.Data), shape, n))
	}
	return &Dense[T]{Shape: append([]int(nil), shape...), Data: t.Data}
}

// At returns the element at the given multi-index.
func (t *Dense[T]) At(idx ...int) T {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Dense[T]) Set(v T, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Dense[T]) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + ix
	}
	return off
}

// Fill sets every element to v.
func (t *Dense[T]) Fill(v T) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0. Unlike Fill(0) — whose store loop the
// compiler cannot specialize because the value is a parameter — clear
// lowers to a vectorized memclr, so zeroing runs at memory bandwidth
// (and at four bytes per element, F32 clears half the bytes).
func (t *Dense[T]) Zero() { clear(t.Data) }

// AddInPlace adds o element-wise into t. Shapes must match in length.
func (t *Dense[T]) AddInPlace(o *Dense[T]) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: AddInPlace length mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// Scale multiplies every element by s.
func (t *Dense[T]) Scale(s T) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AXPY computes t += a*o element-wise.
func (t *Dense[T]) AXPY(a T, o *Dense[T]) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: AXPY length mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += a * v
	}
}

// Add returns t + o as a new tensor.
func Add[T Float](t, o *Dense[T]) *Dense[T] {
	if len(t.Data) != len(o.Data) {
		panic("tensor: Add length mismatch")
	}
	r := NewFromShape[T](append([]int(nil), t.Shape...))
	for i := range t.Data {
		r.Data[i] = t.Data[i] + o.Data[i]
	}
	return r
}

// Sub returns t - o as a new tensor.
func Sub[T Float](t, o *Dense[T]) *Dense[T] {
	if len(t.Data) != len(o.Data) {
		panic("tensor: Sub length mismatch")
	}
	r := NewFromShape[T](append([]int(nil), t.Shape...))
	for i := range t.Data {
		r.Data[i] = t.Data[i] - o.Data[i]
	}
	return r
}

// Mul returns the element-wise (Hadamard) product of t and o.
func Mul[T Float](t, o *Dense[T]) *Dense[T] {
	if len(t.Data) != len(o.Data) {
		panic("tensor: Mul length mismatch")
	}
	r := NewFromShape[T](append([]int(nil), t.Shape...))
	for i := range t.Data {
		r.Data[i] = t.Data[i] * o.Data[i]
	}
	return r
}

// Sum returns the sum of all elements.
func (t *Dense[T]) Sum() T {
	var s T
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty).
func (t *Dense[T]) Mean() T {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / T(len(t.Data))
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Dense[T]) Max() T {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. It panics on an empty tensor.
func (t *Dense[T]) Min() T {
	if len(t.Data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Norm2 returns the Euclidean norm of the flattened tensor.
func (t *Dense[T]) Norm2() T {
	var s T
	for _, v := range t.Data {
		s += v * v
	}
	return T(math.Sqrt(float64(s)))
}

// Apply replaces every element x with f(x).
func (t *Dense[T]) Apply(f func(T) T) {
	for i, v := range t.Data {
		t.Data[i] = f(v)
	}
}

// Map returns a new tensor whose elements are f applied to t's.
func (t *Dense[T]) Map(f func(T) T) *Dense[T] {
	r := NewFromShape[T](append([]int(nil), t.Shape...))
	for i, v := range t.Data {
		r.Data[i] = f(v)
	}
	return r
}

// Row returns a view of row i of a rank-2 tensor as a slice.
func (t *Dense[T]) Row(i int) []T {
	if len(t.Shape) != 2 {
		panic("tensor: Row requires a rank-2 tensor")
	}
	c := t.Shape[1]
	return t.Data[i*c : (i+1)*c]
}

// String implements fmt.Stringer with a compact summary.
func (t *Dense[T]) String() string {
	return fmt.Sprintf("Tensor%v n=%d", t.Shape, len(t.Data))
}

// CopyFrom64 fills t element-wise from the float64 tensor x, which
// must have the same element count (see From64).
func (t *Dense[T]) CopyFrom64(x *Tensor) { From64(t.Data, x.Data) }

// From64 fills dst element-wise from src, which must have the same
// length. At float32 it is the narrowing conversion at the f64→f32
// boundary — weights convert once per workspace, features once per
// batch, and everything downstream stays float32; at float64 it is a
// plain copy.
func From64[T Float](dst []T, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: From64 length mismatch")
	}
	if d, ok := any(dst).([]float64); ok {
		copy(d, src)
		return
	}
	for i, v := range src {
		dst[i] = T(v)
	}
}
