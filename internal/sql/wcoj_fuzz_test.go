package sql

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// wcojShapes are the cyclic-pattern templates the fuzzer instantiates over
// fuzz-derived edge relations E and R: triangle, mixed-relation triangle,
// diamond (4-cycle), 4-clique, and a triangle with a dangling tail — the
// 3–4-variable cyclic cores the chooser lowers, plus the split case. Shapes
// from firstLiteralShape on add literal conjuncts: an anchored triangle, a
// range on the anchor with a residual on a later table, an anchored
// 4-cycle, and an anchored triangle with a tail.
var wcojShapes = []string{
	"select * from E e1, E e2, E e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F",
	"select * from E e1, R r2, E e3 where e1.T = r2.F and r2.T = e3.F and e3.T = e1.F",
	"select count(*) from E e1, R r2, E e3, R r4 where e1.T = r2.F and r2.T = e3.F and e3.T = r4.F and r4.T = e1.F",
	"select count(*) from E e1, E e2, E e3, E e4, E e5, E e6 where e1.F = e2.F and e2.F = e3.F and e1.T = e4.F and e4.F = e5.F and e2.T = e4.T and e4.T = e6.F and e3.T = e5.T and e5.T = e6.T",
	"select * from E e1, E e2, E e3, R r where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F and r.F = e1.F",
	"select * from E e1, E e2, E e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F and e1.F = 1",
	"select * from E e1, R r2, E e3 where e1.T = r2.F and r2.T = e3.F and e3.T = e1.F and e1.F < 4 and r2.T <> 2",
	"select count(*) from E e1, R r2, E e3, R r4 where e1.T = r2.F and r2.T = e3.F and e3.T = r4.F and r4.T = e1.F and e1.F >= 2",
	"select * from E e1, E e2, E e3, R r where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F and r.F = e1.F and e1.F = 0 and r.T > 1",
}

const firstLiteralShape = 5

// FuzzWCOJVsBinary derives two small edge relations from the fuzz input,
// instantiates a cyclic pattern, and requires the WCOJ and binary
// executions to be multiset-equal — with the counters proving which path
// each side took. Seeds cover triangle/diamond/4-clique over skewed, dense,
// self-loop, and empty relations.
func FuzzWCOJVsBinary(f *testing.F) {
	f.Add(uint8(0), []byte{0x01, 0x12, 0x20})
	f.Add(uint8(1), []byte{0x01, 0x12, 0x20, 0x33, 0x01})
	f.Add(uint8(2), []byte{0x01, 0x12, 0x23, 0x30, 0x11, 0x22})
	f.Add(uint8(3), []byte{0x01, 0x02, 0x03, 0x12, 0x13, 0x23})
	f.Add(uint8(4), []byte{0x01, 0x12, 0x20, 0x00, 0x77})
	f.Add(uint8(3), []byte{})
	f.Add(uint8(0), []byte{0x00, 0x00, 0x00, 0x00})
	f.Add(uint8(5), []byte{0x12, 0x23, 0x31, 0x12, 0x23, 0x31, 0x14})
	f.Add(uint8(6), []byte{0x01, 0x12, 0x20, 0x13, 0x32, 0x21, 0x30, 0x02})
	f.Add(uint8(7), []byte{0x21, 0x13, 0x32, 0x22, 0x01, 0x12, 0x20, 0x33})
	f.Add(uint8(8), []byte{0x01, 0x12, 0x20, 0x01, 0x12, 0x20, 0x02})
	f.Add(uint8(5), []byte{0x23, 0x34, 0x42})
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		if len(data) > 64 {
			return // keep the clique join bounded
		}
		si := int(shape) % len(wcojShapes)
		q := wcojShapes[si]
		// Each byte is one edge: high nibble → F, low nibble → T, on an
		// 8-node id space. Even positions feed E, odd positions feed R, so
		// the two relations differ but overlap.
		eRel := relation.New(schema.Cols(value.KindInt, "F", "T"))
		rRel := relation.New(schema.Cols(value.KindInt, "F", "T"))
		for i, b := range data {
			tu := []value.Value{value.Int(int64(b >> 4 & 7)), value.Int(int64(b & 7))}
			if i%2 == 0 {
				eRel.AppendVals(tu...)
			} else {
				rRel.AppendVals(tu...)
			}
		}
		e := engine.New(engine.OracleLike())
		if _, err := e.LoadBase("E", eRel); err != nil {
			t.Fatal(err)
		}
		if _, err := e.LoadBase("R", rRel); err != nil {
			t.Fatal(err)
		}
		x := NewExec(e)
		s1, err := ParseSelect(q)
		if err != nil {
			t.Fatal(err)
		}
		before := e.Cnt.Snapshot()
		fast, err := x.Run(s1)
		if err != nil {
			t.Fatal(err)
		}
		mid := e.Cnt.Snapshot()
		e.DisableWCOJ = true
		s2, err := ParseSelect(q)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := x.Run(s2)
		if err != nil {
			t.Fatal(err)
		}
		after := e.Cnt.Snapshot()
		if after.WCOJProbes != mid.WCOJProbes {
			t.Fatalf("disabled run probed the WCOJ path (%d -> %d)", mid.WCOJProbes, after.WCOJProbes)
		}
		// Non-empty inputs must actually exercise the WCOJ path (empty
		// relations still lower, but may finish without probing). A pushed
		// literal filter may empty the anchor atom: the multiway join then
		// ran, its trie build counted, without a probe.
		if len(data) >= 3 && mid.WCOJProbes == before.WCOJProbes &&
			(si < firstLiteralShape || mid.WCOJBuilds == before.WCOJBuilds) {
			t.Fatalf("WCOJ path did not run on %q", q)
		}
		if !fast.Equal(slow) {
			t.Fatalf("multiset mismatch on %q: wcoj %d rows, binary %d rows\nwcoj:\n%s\nbinary:\n%s",
				q, fast.Len(), slow.Len(), sortedRows(fast), sortedRows(slow))
		}
	})
}
