package tsdb

import (
	"math"
	"slices"
)

// valueVec is the one in-memory representation of a run of field
// values between disk and the aggregation kernel: a column's raw tail,
// a decoded block payload and a scan chunk all hold one. A homogeneous
// float or int run is a plain 8-byte slice the kernel reads directly; only a run that actually holds strings, bools or a
// mid-stream kind switch pays for 48-byte Value cells.
//
// Exactly one of f, f32, i, m is in use, selected by kind. The zero
// value is an empty vector; an empty vector takes the kind of the first
// value appended to it.
//
// f32 is a read-only form, as timeVec's regular one is: a cached block
// payload whose floats all survive float32 bit for bit keeps 4 bytes a
// value (compactFloats). Whatever builds or copies a vector widens it
// back to float64, so no column tail, result or sealed payload holds it.
type valueVec struct {
	kind vecKind
	f    []float64
	f32  []float32
	i    []int64
	m    []Value
}

type vecKind uint8

const (
	vecMixed   vecKind = iota // []Value cells
	vecFloat                  // every value KindFloat
	vecInt                    // every value KindInt
	vecFloat32                // every value KindFloat and float32-exact; read-only
)

// valueCellBytes is the size of one Value struct (kind, float, int,
// string header, bool, padded), the per-point cost of a mixed vector.
const valueCellBytes = 48

func vecKindOf(k ValueKind) vecKind {
	switch k {
	case KindFloat:
		return vecFloat
	case KindInt:
		return vecInt
	default:
		return vecMixed
	}
}

// makeVec returns an empty vector of the given kind, vecFloat for
// vecFloat32, with capacity c.
func makeVec(kind vecKind, c int) valueVec {
	switch kind {
	case vecFloat, vecFloat32:
		return valueVec{kind: vecFloat, f: make([]float64, 0, c)}
	case vecInt:
		return valueVec{kind: kind, i: make([]int64, 0, c)}
	default:
		return valueVec{kind: kind, m: make([]Value, 0, c)}
	}
}

// cap is the capacity of the one slice in use (the others are nil).
func (v *valueVec) cap() int { return cap(v.f) + cap(v.f32) + cap(v.i) + cap(v.m) }

func (v *valueVec) len() int {
	switch v.kind {
	case vecFloat:
		return len(v.f)
	case vecInt:
		return len(v.i)
	case vecFloat32:
		return len(v.f32)
	default:
		return len(v.m)
	}
}

// at is the generic accessor: value j as a Value, whatever the
// representation.
func (v *valueVec) at(j int) Value {
	switch v.kind {
	case vecFloat:
		return Float(v.f[j])
	case vecInt:
		return Int(v.i[j])
	case vecFloat32:
		return Float(float64(v.f32[j]))
	default:
		return v.m[j]
	}
}

// slice returns the window [lo, hi) sharing v's backing array.
func (v *valueVec) slice(lo, hi int) valueVec {
	switch v.kind {
	case vecFloat:
		return valueVec{kind: v.kind, f: v.f[lo:hi]}
	case vecInt:
		return valueVec{kind: v.kind, i: v.i[lo:hi]}
	case vecFloat32:
		return valueVec{kind: v.kind, f32: v.f32[lo:hi]}
	default:
		return valueVec{kind: v.kind, m: v.m[lo:hi]}
	}
}

// promote re-homes a typed vector into fresh Value cells with room for
// one more. The typed array is left as it was: a published view may
// still be reading it.
func (v *valueVec) promote() {
	n := v.len()
	m := make([]Value, n, n+1)
	for j := range m {
		m[j] = v.at(j)
	}
	*v = valueVec{kind: vecMixed, m: m}
}

// append adds one value. In-kind appends land in spare capacity beyond
// every published length (the column COW rule, see view.go); a value of
// another kind promotes the vector to mixed first.
func (v *valueVec) append(x Value) {
	if v.kind == vecFloat32 {
		*v = v.narrowed() // a float64 copy: the float32 form is read-only
	}
	k := vecKindOf(x.Kind)
	switch {
	case v.kind == k:
	case v.len() == 0:
		*v = valueVec{kind: k}
	case v.kind != vecMixed:
		v.promote()
	}
	switch v.kind {
	case vecFloat:
		v.f = append(v.f, x.F)
	case vecInt:
		v.i = append(v.i, x.I)
	default:
		v.m = append(v.m, x)
	}
}

// appendVec appends every value of o, a typed o onto an empty vector
// or one of its kind in one copy (a float32 o widened as it goes).
func (v *valueVec) appendVec(o valueVec) {
	k := o.kind
	if k == vecFloat32 {
		k = vecFloat
	}
	if k != vecMixed && o.len() > 0 && (v.kind == k || v.len() == 0) {
		if v.kind != k {
			*v = valueVec{kind: k}
		}
		v.f, v.i = append(v.f, o.f...), append(v.i, o.i...)
		v.f = slices.Grow(v.f, len(o.f32))
		for _, x := range o.f32 {
			v.f = append(v.f, float64(x))
		}
		return
	}
	for j, n := 0, o.len(); j < n; j++ {
		v.append(o.at(j))
	}
}

// pick returns a new vector of v's kind holding v[idx[0]], v[idx[1]],
// …, and the zero of the kind where an index is negative.
func (v *valueVec) pick(idx []int) valueVec {
	if v.kind == vecFloat32 {
		w := v.narrowed()
		return w.pick(idx)
	}
	return valueVec{kind: v.kind, f: pick(v.f, idx), i: pick(v.i, idx), m: pick(v.m, idx)}
}

// pick returns s[idx[0]], s[idx[1]], …, with the zero T where an index
// is negative; nil for a nil s.
func pick[T any](s []T, idx []int) []T {
	if s == nil {
		return nil
	}
	out := make([]T, len(idx))
	for j, k := range idx {
		if k >= 0 {
			out[j] = s[k]
		}
	}
	return out
}

// narrowed returns a typed copy of a mixed vector that holds only
// floats or only ints, a float64 copy of a float32 one, and v itself
// when it is float64 or int already or starts with a string or bool.
// Sealing narrows each run so the block encoding depends on the values
// alone, never on how the tail came to be represented.
func (v *valueVec) narrowed() valueVec {
	if v.kind != vecFloat32 && (v.kind != vecMixed || len(v.m) == 0 || vecKindOf(v.m[0].Kind) == vecMixed) {
		return *v
	}
	var out valueVec
	out.appendVec(*v) // append picks the narrowest kind that holds them all
	return out
}

// compactFloats returns a float vector in a fresh array: the float32
// form when to32 and every value survives float64 → float32 → float64
// bit for bit (NaN payloads, −0, ±Inf and subnormals decide
// themselves), else a float64 copy; other kinds come back as they are.
func compactFloats(v valueVec, to32 bool) valueVec {
	if v.kind != vecFloat {
		return v
	}
	for _, x := range v.f {
		if !to32 || math.Float64bits(float64(float32(x))) != math.Float64bits(x) {
			return valueVec{kind: vecFloat, f: slices.Clone(v.f)}
		}
	}
	f32 := make([]float32, len(v.f))
	for j, x := range v.f {
		f32[j] = float32(x)
	}
	return valueVec{kind: vecFloat32, f32: f32}
}

// encodedSize is the sum of Value.EncodedSize over the vector: the
// canonical storage volume QueryStats.BytesScanned and the compression
// ratio are counted in.
func (v *valueVec) encodedSize() int64 {
	if v.kind != vecMixed {
		return 8 * int64(v.len())
	}
	var n int64
	for j := range v.m {
		n += int64(v.m[j].EncodedSize())
	}
	return n
}

// heapBytes is what the vector's cells occupy in memory: 8 bytes per
// numeric value, 4 in the float32 form; a Value struct plus its string
// bytes per mixed one.
func (v *valueVec) heapBytes() int64 {
	if v.kind == vecFloat32 {
		return 4 * int64(len(v.f32))
	}
	if v.kind != vecMixed {
		return 8 * int64(v.len())
	}
	n := valueCellBytes * int64(len(v.m))
	for j := range v.m {
		n += int64(len(v.m[j].S))
	}
	return n
}

// timeVec is the timestamps of a run: a regular prefix t0 + i·step for
// i < n (step > 0 once n > 1), then the explicit suffix t. A run at a
// fixed cadence, as every polled series is, costs two numbers instead
// of 8 bytes per point; an all-explicit run has n == 0. Stored runs —
// column tails and cached block payloads — are kept in the one
// canonical form compactTimes returns, so the form depends on the
// times alone, never on how they came to be written. step and n are 32
// bits wide (a step up to 68 years of seconds) so that the column a
// write batch copies per written field stays in a 176-byte allocation.
type timeVec struct {
	t0      int64
	step, n int32
	t       []int64
}

// compactTimes returns t as its longest regular prefix plus a copy of
// the rest (nil when nothing is left).
func compactTimes(t []int64) timeVec {
	var v timeVec
	for i, x := range t {
		if !v.extends(x) {
			v.t = slices.Clone(t[i:])
			break
		}
	}
	return v
}

// extends adds x to the regular prefix of a vector with no suffix when
// it continues it — the first time, a later second one, or the next
// time on the step — and reports whether it did. A step wider than 32
// bits or a next time past MaxInt64 never matches.
func (v *timeVec) extends(x int64) bool {
	switch {
	case v.n == 0:
		v.t0 = x
	case v.n == math.MaxInt32:
		return false
	case v.n == 1:
		// Once x > t0, the distance is exact as a uint64.
		if x <= v.t0 || uint64(x)-uint64(v.t0) > math.MaxInt32 {
			return false
		}
		v.step = int32(x - v.t0)
	default:
		if last := v.at(int(v.n) - 1); x <= last || x-last != int64(v.step) {
			return false
		}
	}
	v.n++
	return true
}

// append adds one time in the write path's order, so an append-built
// vector is compactTimes of its times. The first time off the prefix
// starts the suffix in a fresh array (a stored vector's empty suffix
// is nil); later ones append to it in spare capacity beyond every
// published length (the column COW rule, see view.go); a full suffix
// grows to end with c, its values' capacity, so both reallocate together.
func (v *timeVec) append(x int64, c int) {
	if len(v.t) > 0 || !v.extends(x) {
		if k := c - int(v.n); len(v.t) == cap(v.t) && k > len(v.t) {
			v.t = append(make([]int64, 0, k), v.t...)
		}
		v.t = append(v.t, x)
	}
}

func (v *timeVec) len() int { return int(v.n) + len(v.t) }

func (v *timeVec) at(i int) int64 {
	if n := int(v.n); i >= n {
		return v.t[i-n]
	}
	return v.t0 + int64(i)*int64(v.step)
}

// slice returns the window [lo, hi) sharing v's backing array.
func (v *timeVec) slice(lo, hi int) timeVec {
	n := int(v.n)
	if lo >= n {
		return timeVec{t: v.t[lo-n : hi-n]}
	}
	w := timeVec{t0: v.at(lo), step: v.step, n: int32(min(hi, n) - lo)}
	if hi > n {
		w.t = v.t[:hi-n]
	}
	return w
}

// search returns the first index whose time is >= x (len when none
// is), as sort.Search would over the explicit times.
func (v *timeVec) search(x int64) int {
	switch {
	case v.n > 0 && x <= v.t0:
		return 0
	case v.n > 1:
		// x > t0, so the distance fits a uint64 even across the int64 range.
		d, s := uint64(x)-uint64(v.t0), uint64(v.step)
		if k := (d-1)/s + 1; k < uint64(v.n) {
			return int(k)
		}
	}
	i, _ := slices.BinarySearch(v.t, x)
	return int(v.n) + i
}

// runEnd returns the first index after j whose time is >= x (len when
// none is): the end of the run that starts at j and stops before x,
// which is how reduceField cuts bucket runs. The prefix computes it;
// the suffix scans forward, since a run is one bucket long and a
// binary search per bucket costs more than it saves there.
func (v *timeVec) runEnd(j int, x int64) int {
	n := int(v.n)
	if j+1 < n {
		return max(v.search(x), j+1)
	}
	k := j + 1 - n
	for k < len(v.t) && v.t[k] < x {
		k++
	}
	return n + k
}

// appendTo appends the times to dst.
func (v *timeVec) appendTo(dst []int64) []int64 {
	dst = slices.Grow(dst, v.len())
	for i := range int(v.n) {
		dst = append(dst, v.at(i))
	}
	return append(dst, v.t...)
}
