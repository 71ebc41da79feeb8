package tsdb

// valueVec is the one in-memory representation of a run of field
// values between disk and the aggregator: a column's raw tail, a
// decoded block payload and a scan chunk all hold one. A homogeneous
// float or int run is a plain 8-byte slice the aggregation kernels read
// directly; only a run that actually holds strings, bools or a
// mid-stream kind switch pays for 48-byte Value cells.
//
// Exactly one of f, i, m is in use, selected by kind. The zero value is
// an empty vector; an empty vector takes the kind of the first value
// appended to it.
type valueVec struct {
	kind vecKind
	f    []float64
	i    []int64
	m    []Value
}

type vecKind uint8

const (
	vecMixed vecKind = iota // []Value cells
	vecFloat                // every value KindFloat
	vecInt                  // every value KindInt
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

// makeVec returns an empty vector of the given kind with capacity c.
func makeVec(kind vecKind, c int) valueVec {
	switch kind {
	case vecFloat:
		return valueVec{kind: kind, f: make([]float64, 0, c)}
	case vecInt:
		return valueVec{kind: kind, i: make([]int64, 0, c)}
	default:
		return valueVec{kind: kind, m: make([]Value, 0, c)}
	}
}

func (v *valueVec) len() int {
	switch v.kind {
	case vecFloat:
		return len(v.f)
	case vecInt:
		return len(v.i)
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
// or one of its kind in one copy.
func (v *valueVec) appendVec(o valueVec) {
	if o.kind != vecMixed && o.len() > 0 && (v.kind == o.kind || v.len() == 0) {
		if v.kind != o.kind {
			*v = valueVec{kind: o.kind}
		}
		v.f, v.i = append(v.f, o.f...), append(v.i, o.i...)
		return
	}
	for j, n := 0, o.len(); j < n; j++ {
		v.append(o.at(j))
	}
}

// pick returns a new vector of v's kind holding v[idx[0]], v[idx[1]],
// …, and the zero of the kind where an index is negative.
func (v *valueVec) pick(idx []int) valueVec {
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
// floats or only ints, and v itself when it is typed already or starts
// with a string or bool. Sealing narrows each run so the block encoding
// depends on the values alone, never on how the tail came to be
// represented.
func (v *valueVec) narrowed() valueVec {
	if v.kind != vecMixed || len(v.m) == 0 || vecKindOf(v.m[0].Kind) == vecMixed {
		return *v
	}
	var out valueVec
	out.appendVec(*v) // append picks the narrowest kind that holds them all
	return out
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
// numeric value; a Value struct plus its string bytes per mixed one.
func (v *valueVec) heapBytes() int64 {
	if v.kind != vecMixed {
		return 8 * int64(v.len())
	}
	n := valueCellBytes * int64(len(v.m))
	for j := range v.m {
		n += int64(len(v.m[j].S))
	}
	return n
}
