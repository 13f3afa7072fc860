package relation

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/schema"
	"repro/internal/value"
)

func intSchema(names ...string) schema.Schema {
	return schema.Cols(value.KindInt, names...)
}

func mk(vals ...int64) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = value.Int(v)
	}
	return t
}

func TestTupleCloneIndependent(t *testing.T) {
	a := mk(1, 2)
	b := a.Clone()
	b[0] = value.Int(99)
	if a[0].AsInt() != 1 {
		t.Error("Clone should not alias")
	}
}

func TestTupleEqualHash(t *testing.T) {
	if !mk(1, 2).Equal(mk(1, 2)) {
		t.Error("equal tuples")
	}
	if mk(1, 2).Equal(mk(1, 3)) || mk(1).Equal(mk(1, 2)) {
		t.Error("unequal tuples")
	}
	if mk(1, 2).Hash() != mk(1, 2).Hash() {
		t.Error("equal tuples must hash equally")
	}
	mixed := Tuple{value.Int(3), value.Str("x")}
	same := Tuple{value.Float(3), value.Str("x")}
	if !mixed.Equal(same) || mixed.Hash() != same.Hash() {
		t.Error("cross-kind numeric tuple equality/hash")
	}
}

func TestTupleOnSubsets(t *testing.T) {
	a, b := mk(1, 5, 9), mk(2, 5, 9)
	if !a.EqualOn([]int{1, 2}, b, []int{1, 2}) {
		t.Error("EqualOn subset")
	}
	if a.EqualOn([]int{0}, b, []int{0}) {
		t.Error("EqualOn differing subset")
	}
	if a.HashOn([]int{1, 2}) != b.HashOn([]int{1, 2}) {
		t.Error("HashOn consistent with EqualOn")
	}
	if a.CompareOn([]int{0}, b, []int{0}) != -1 {
		t.Error("CompareOn")
	}
	if a.CompareOn([]int{1}, b, []int{1}) != 0 {
		t.Error("CompareOn equal")
	}
}

func TestRelationAppendAt(t *testing.T) {
	r := New(intSchema("a", "b"))
	r.AppendVals(value.Int(1), value.Int(2))
	r.Append(mk(3, 4))
	if r.Len() != 2 || r.At(1)[0].AsInt() != 3 {
		t.Errorf("relation contents wrong: %v", r)
	}
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch should panic")
		}
	}()
	r.Append(mk(1))
}

func TestRelationCloneTruncate(t *testing.T) {
	r := New(intSchema("a"))
	r.Append(mk(1))
	c := r.Clone()
	c.Tuples[0][0] = value.Int(9)
	if r.At(0)[0].AsInt() != 1 {
		t.Error("Clone should deep-copy tuples")
	}
	r.Truncate()
	if r.Len() != 0 {
		t.Error("Truncate should empty")
	}
}

func TestSortByAndIsSorted(t *testing.T) {
	r := New(intSchema("a", "b"))
	r.Append(mk(3, 1))
	r.Append(mk(1, 2))
	r.Append(mk(2, 0))
	r.SortBy([]int{0})
	if !r.IsSortedBy([]int{0}) {
		t.Error("not sorted after SortBy")
	}
	if r.At(0)[0].AsInt() != 1 || r.At(2)[0].AsInt() != 3 {
		t.Errorf("sort order wrong: %v", r)
	}
	r.Tuples[0], r.Tuples[2] = r.Tuples[2], r.Tuples[0]
	if r.IsSortedBy([]int{0}) {
		t.Error("IsSortedBy should detect disorder")
	}
}

func TestRelationEqualBagSemantics(t *testing.T) {
	a := New(intSchema("x"))
	b := New(intSchema("x"))
	a.Append(mk(1))
	a.Append(mk(1))
	a.Append(mk(2))
	b.Append(mk(2))
	b.Append(mk(1))
	b.Append(mk(1))
	if !a.Equal(b) {
		t.Error("order-insensitive bag equality failed")
	}
	b.Tuples[0] = mk(1) // now {1,1,1} vs {1,1,2}
	if a.Equal(b) {
		t.Error("multiplicity must matter")
	}
	c := New(intSchema("x"))
	c.Append(mk(1))
	if a.Equal(c) {
		t.Error("length must matter")
	}
}

func TestRelationEqualProperty(t *testing.T) {
	f := func(vals []int8, seed int64) bool {
		a := New(intSchema("x"))
		for _, v := range vals {
			a.Append(mk(int64(v)))
		}
		b := a.Clone()
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(b.Tuples), func(i, j int) {
			b.Tuples[i], b.Tuples[j] = b.Tuples[j], b.Tuples[i]
		})
		return a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHashIndexProbe(t *testing.T) {
	r := New(intSchema("f", "t"))
	r.Append(mk(1, 10))
	r.Append(mk(2, 20))
	r.Append(mk(1, 11))
	idx := BuildHashIndex(r, []int{0})
	rows := idx.Probe(mk(1), []int{0})
	if len(rows) != 2 {
		t.Errorf("Probe(1) = %v", rows)
	}
	if !idx.Contains(mk(2), []int{0}) || idx.Contains(mk(3), []int{0}) {
		t.Error("Contains wrong")
	}
	// Probing with a different key column position.
	probe := mk(99, 1)
	rows = idx.Probe(probe, []int{1})
	if len(rows) != 2 {
		t.Errorf("Probe via col 1 = %v", rows)
	}
	r.Append(mk(3, 30))
	idx.Add(3)
	if !idx.Contains(mk(3), []int{0}) {
		t.Error("Add should index new row")
	}
}

func TestSortedIndex(t *testing.T) {
	r := New(intSchema("k", "v"))
	r.Append(mk(5, 0))
	r.Append(mk(1, 1))
	r.Append(mk(3, 2))
	r.Append(mk(3, 3))
	idx := BuildSortedIndex(r, []int{0})
	if idx.Len() != 4 {
		t.Fatal("Len")
	}
	keys := []int64{1, 3, 3, 5}
	for i, want := range keys {
		if got := idx.Tuple(i)[0].AsInt(); got != want {
			t.Errorf("pos %d key = %d, want %d", i, got, want)
		}
	}
	if p := idx.SeekGE(mk(3), []int{0}); p != 1 {
		t.Errorf("SeekGE(3) = %d", p)
	}
	if p := idx.SeekGE(mk(4), []int{0}); p != 3 {
		t.Errorf("SeekGE(4) = %d", p)
	}
	if p := idx.SeekGE(mk(9), []int{0}); p != 4 {
		t.Errorf("SeekGE(9) = %d", p)
	}
	// Underlying relation untouched.
	if r.At(0)[0].AsInt() != 5 {
		t.Error("SortedIndex must not reorder the relation")
	}
}

func TestSortedIndexStability(t *testing.T) {
	r := New(intSchema("k", "seq"))
	for i := int64(0); i < 10; i++ {
		r.Append(mk(1, i))
	}
	idx := BuildSortedIndex(r, []int{0})
	for i := int64(0); i < 10; i++ {
		if idx.Tuple(int(i))[1].AsInt() != i {
			t.Fatal("stable sort expected for equal keys")
		}
	}
}

// TestFootprint pins the governor's intermediate estimate: 16 bytes per
// value slot, string payloads not counted.
func TestFootprint(t *testing.T) {
	r := New(intSchema("a", "b"))
	if got := r.Footprint(); got != 0 {
		t.Errorf("empty footprint = %d", got)
	}
	r.AppendVals(value.Int(1), value.Int(2))
	r.AppendVals(value.Int(3), value.Str("a long string payload"))
	r.AppendVals(value.Int(5), value.Int(6))
	if got := r.Footprint(); got != 3*2*16 {
		t.Errorf("footprint = %d, want %d", got, 3*2*16)
	}
}
