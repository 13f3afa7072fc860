package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"repro/internal/refimpl"
	"repro/internal/relation"
)

// prTolerance is the largest absolute PageRank difference accepted against
// refimpl.PageRank; scores are near 1/n = 2e-4, and the relational and
// reference summation orders differ only in the last bits.
const prTolerance = 1e-9

// checker verifies closed-loop answers against independent computations
// on the generated graph: the refimpl algorithms and adjacency-list walks.
type checker struct {
	d   *dataset
	pr  []float64
	wcc []int64
	tri int64
}

func newChecker(d *dataset) *checker { return &checker{d: d, tri: -1} }

// check returns an error describing the first wrong value of st's answer.
func (c *checker) check(st stmt, rows *relation.Relation) error {
	if rows == nil {
		return fmt.Errorf("no result rows")
	}
	switch st.Kind {
	case "pr":
		if c.pr == nil {
			c.pr = refimpl.PageRank(c.d.g, prDamping, prIters)
		}
		return c.perNode(rows, func(id int, v float64) bool { return math.Abs(v-c.pr[id]) <= prTolerance })
	case "wcc":
		if c.wcc == nil {
			c.wcc = refimpl.WCC(c.d.g)
		}
		return c.perNode(rows, func(id int, v float64) bool { return v == float64(c.wcc[id]) })
	case "sssp", "short":
		ref := refimpl.BellmanFord(c.d.g, st.Src)
		return c.perNode(rows, func(id int, v float64) bool {
			if math.IsInf(ref[id], 1) {
				return v >= 1e17 // the 1e18 unreachable sentinel
			}
			return v == ref[id]
		})
	case "bfs":
		ref := refimpl.BFS(c.d.g, st.Src)
		return c.perNode(rows, func(id int, v float64) bool { return v == ref[id] })
	case "tri":
		if st.Src < 0 {
			if c.tri < 0 {
				c.tri = c.cycles3()
			}
			if rows.Len() != 1 || rows.At(0)[0].AsInt() != c.tri {
				return fmt.Errorf("triangle count %v, want %d", rows, c.tri)
			}
			return nil
		}
		return sameLines(rows, c.anchoredTriangles(st.Src))
	case "2hop":
		return sameLines(rows, c.twoHop(st.Src))
	case "reach":
		return sameLines(rows, c.reach3(st.Src))
	}
	return fmt.Errorf("no check for kind %q", st.Kind)
}

// perNode checks a two-column (ID, value) answer holding every node once.
func (c *checker) perNode(rows *relation.Relation, ok func(id int, v float64) bool) error {
	if rows.Len() != c.d.n {
		return fmt.Errorf("%d rows, want %d", rows.Len(), c.d.n)
	}
	seen := make([]bool, c.d.n)
	for _, tu := range rows.Tuples {
		id := int(tu[0].AsInt())
		if id < 0 || id >= c.d.n || seen[id] {
			return fmt.Errorf("bad or repeated node id %v", tu[0])
		}
		seen[id] = true
		if v := tu[1].AsFloat(); !ok(id, v) {
			return fmt.Errorf("node %d: got %v", id, v)
		}
	}
	return nil
}

// cycles3 counts directed closed walks of length 3 (a→b→c→a) from the edge
// list: the whole-graph MATCH counts each triangle once per rotation.
func (c *checker) cycles3() int64 {
	has := c.edgeSet()
	var n int64
	for a, bs := range c.d.out {
		for _, b := range bs {
			for _, cc := range c.d.out[b] {
				if has[edgeKey(cc, int32(a))] {
					n++
				}
			}
		}
	}
	return n
}

func (c *checker) anchoredTriangles(a int32) []string {
	has := c.edgeSet()
	var out []string
	for _, b := range c.d.out[a] {
		for _, cc := range c.d.out[b] {
			if has[edgeKey(cc, a)] {
				out = append(out, fmt.Sprintf("%d\t%d", b, cc))
			}
		}
	}
	return out
}

func (c *checker) twoHop(a int32) []string {
	var out []string
	for _, b := range c.d.out[a] {
		for _, cc := range c.d.out[b] {
			out = append(out, fmt.Sprintf("%d\t%d", b, cc))
		}
	}
	return out
}

// reach3 is the set of nodes at the end of a walk of one to three edges
// from a: by refimpl.BFSLevels for every other node, and for a itself
// whether a cycle of length at most three returns to it.
func (c *checker) reach3(a int32) []string {
	lvl := refimpl.BFSLevels(c.d.g, a)
	var out []string
	for v, l := range lvl {
		if v != int(a) && l >= 1 && l <= 3 {
			out = append(out, fmt.Sprint(v))
		}
	}
	if c.returns(a) {
		out = append(out, fmt.Sprint(a))
	}
	return out
}

// returns reports whether a walk of one to three edges leads from a back to a.
func (c *checker) returns(a int32) bool {
	for _, b := range c.d.out[a] {
		if b == a {
			return true
		}
		for _, cc := range c.d.out[b] {
			if cc == a || contains(c.d.out[cc], a) {
				return true
			}
		}
	}
	return false
}

func contains(xs []int32, x int32) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func (c *checker) edgeSet() map[int64]bool {
	has := make(map[int64]bool, len(c.d.g.Edges))
	for _, e := range c.d.g.Edges {
		has[edgeKey(e.F, e.T)] = true
	}
	return has
}

func edgeKey(f, t int32) int64 { return int64(f)<<32 | int64(uint32(t)) }

// sameLines compares an answer with the expected rows as multisets of
// rendered lines.
func sameLines(rows *relation.Relation, want []string) error {
	got := renderSorted(rows)
	sort.Strings(want)
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("row %q, want %q", got[i], want[i])
		}
	}
	return nil
}

// renderSorted renders rows the way the wire protocol does (tab-separated
// values) and sorts them, so in-process and wire answers compare as
// multisets.
func renderSorted(r *relation.Relation) []string {
	if r == nil {
		return nil
	}
	out := make([]string, 0, r.Len())
	for _, tu := range r.Tuples {
		parts := make([]string, len(tu))
		for i, v := range tu {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "\t"))
	}
	sort.Strings(out)
	return out
}

// linesHash is the order-independent checksum of one answer.
func linesHash(lines []string) uint64 {
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// foldChecksum accumulates per-statement answer hashes in stream order.
func foldChecksum(sum, stmtHash uint64) uint64 { return sum*1099511628211 ^ stmtHash }
