package graphsql

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/value"
)

// anchoredDB loads a random digraph (dense enough for 2-paths, triangles
// and 4-cycles through most nodes) as E(F, T, ew) and V(ID, vw), plus a
// property graph pg over them. nullWeights makes every third edge weight
// NULL, so a predicate on ew meets unknown.
func anchoredDB(t *testing.T, profile string, nullWeights bool) *DB {
	t.Helper()
	db, err := Open(profile)
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	g := NewGraph(n, true)
	state := uint32(7)
	next := func(k uint32) int32 {
		state = state*1664525 + 1013904223
		return int32((state >> 8) % k)
	}
	for i := 0; i < 150; i++ {
		g.AddEdge(next(n), next(n), float64(next(10)))
	}
	eRel := g.EdgeRelation()
	if nullWeights {
		for i, tu := range eRel.Tuples {
			if i%3 == 0 {
				tu[2] = value.Null
			}
		}
	}
	if err := db.LoadRelation("E", eRel); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadNodes("V", g, func(i int) float64 { return float64(i % 7) }); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(context.Background(), `create property graph pg (
		vertex tables (V key (ID)),
		edge tables (E source key (F) references V destination key (T) references V))`); err != nil {
		t.Fatal(err)
	}
	return db
}

// anchoredCases pair an anchored MATCH with the same join whose predicate
// is lifted into an outer single-source select, which the executor cannot
// push. pushed names the edge variable the predicate must be filtered on
// before the join ("" when it must stay residual).
var anchoredCases = []struct {
	name, pattern, columns, where, lifted, pushed string
	nulls                                         bool
}{
	{"2hop", "(a)-[e1]->(b)-[e2]->(c)", "a.ID a, b.ID b, c.ID c", "a.ID = 5", "a = 5", "e1", false},
	{"triangle", "(a)-[e1]->(b)-[e2]->(c)-[e3]->(a)", "a.ID a, b.ID b, c.ID c", "a.ID = 5", "a = 5", "e1", false},
	{"4cycle", "(a)-[e1]->(b)-[e2]->(c)-[e3]->(d)-[e4]->(a)", "a.ID a, b.ID b, c.ID c, d.ID d", "a.ID = 5", "a = 5", "e1", false},
	{"range_2hop", "(a)-[e1]->(b)-[e2]->(c)", "a.ID a, b.ID b, c.ID c", "a.ID < 4", "a < 4", "e1", false},
	{"range_triangle", "(a)-[e1]->(b)-[e2]->(c)-[e3]->(a)", "a.ID a, b.ID b, c.ID c", "a.ID < 9", "a < 9", "e1", false},
	{"later_source", "(a)-[e1]->(b)-[e2]->(c)", "a.ID a, b.ID b, c.ID c", "c.ID = 5", "c = 5", "", false},
	{"vertex_property", "(a)-[e1]->(b)-[e2]->(c)", "a.ID a, a.vw w, b.ID b, c.ID c", "a.vw > 3", "w > 3", "", false},
	{"null_column", "(a)-[e1]->(b)-[e2]->(c)", "a.ID a, e1.ew w, b.ID b, c.ID c", "e1.ew > 4", "w > 4", "e1", true},
}

// filteredScan reports whether an EXPLAIN ANALYZE report filters the scan
// of alias directly (a filter node whose next line is that scan).
func filteredScan(report, alias string) bool {
	lines := strings.Split(report, "\n")
	for i := 0; i+1 < len(lines); i++ {
		if strings.Contains(lines[i], "-> filter ") && strings.Contains(lines[i+1], "-> scan "+alias+" ") {
			return true
		}
	}
	return false
}

// TestMatchAnchoredPushdown runs every anchored MATCH against its lifted
// twin on each profile with the multiway join on and off, and requires
// byte-identical output. The executed plan must filter the anchor's edge
// scan before the join exactly when the predicate is pushable, and the
// rows must be non-empty so the comparison says something.
func TestMatchAnchoredPushdown(t *testing.T) {
	for _, profile := range diffProfiles {
		for _, nulls := range []bool{false, true} {
			db := anchoredDB(t, profile, nulls)
			for _, tc := range anchoredCases {
				if tc.nulls != nulls {
					continue
				}
				for _, noWCOJ := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/nowcoj=%v", profile, tc.name, noWCOJ), func(t *testing.T) {
						db.eng.DisableWCOJ = noWCOJ
						defer func() { db.eng.DisableWCOJ = false }()
						anchored := fmt.Sprintf("select * from graph_table(pg match %s where %s columns (%s))", tc.pattern, tc.where, tc.columns)
						lifted := fmt.Sprintf("select * from graph_table(pg match %s columns (%s)) where %s", tc.pattern, tc.columns, tc.lifted)
						got, want := queryString(t, db, anchored), queryString(t, db, lifted)
						if got != want {
							t.Fatalf("anchored and lifted outputs differ:\n--- anchored ---\n%s\n--- lifted ---\n%s", got, want)
						}
						if strings.Count(got, "\n") < 2 {
							t.Fatalf("no rows to compare:\n%s", got)
						}
						report, err := db.ExplainAnalyze(context.Background(), anchored)
						if err != nil {
							t.Fatal(err)
						}
						for _, e := range []string{"e1", "e2", "e3", "e4", "a"} {
							if want := e == tc.pushed; filteredScan(report, e) != want {
								t.Fatalf("scan %s filtered before the join = %v, want %v:\n%s", e, !want, want, report)
							}
						}
						lreport, err := db.ExplainAnalyze(context.Background(), lifted)
						if err != nil {
							t.Fatal(err)
						}
						if filteredScan(lreport, "e1") {
							t.Fatalf("lifted predicate was pushed:\n%s", lreport)
						}
					})
				}
			}
		}
	}
}

// TestAnchoredMatchPlanCounters pins what pushdown saves on the WG
// stand-in (5,000 nodes, 58,300 edges) with deterministic counters: the
// anchored 2-hop materializes only the anchor's 2-paths instead of every
// 2-path in the graph, the anchored triangle probes the multiway join at
// least 100× less than the whole-graph triangle, and a memory budget far
// below the unpushed 2-hop's join footprint is enough. The 2-hop anchors at
// the node of largest out-degree, the bound's worst case.
func TestAnchoredMatchPlanCounters(t *testing.T) {
	g := MustGenerate("WG", 5000, 1)
	db, err := Open("oracle")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadEdges("E", g); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadNodes("V", g, nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := db.Query(ctx, `create property graph pg (
		vertex tables (V key (ID)),
		edge tables (E source key (F) references V destination key (T) references V))`); err != nil {
		t.Fatal(err)
	}
	out := g.OutDegrees()
	anchor := 0
	for v, d := range out {
		if d > out[anchor] {
			anchor = v
		}
	}
	var anchorPaths, allPaths int64
	for _, e := range g.Edges {
		allPaths += int64(out[e.T])
		if int(e.F) == anchor {
			anchorPaths += int64(out[e.T])
		}
	}
	run := func(q string) (int, CountersSnapshot) {
		t.Helper()
		before := db.Stats()
		res, err := db.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		after := db.Stats()
		return res.Rows.Len(), CountersSnapshot{
			TuplesMaterialized: after.TuplesMaterialized - before.TuplesMaterialized,
			WCOJProbes:         after.WCOJProbes - before.WCOJProbes,
		}
	}

	// The unpushed 2-hop would materialize allPaths six-column tuples.
	unpushedBytes := allPaths * 6 * 16
	db.SetLimits(Limits{MaxBytes: unpushedBytes / 100})
	twoHop := fmt.Sprintf("select * from graph_table(pg match (a)-[e1]->(b)-[e2]->(c) where a.ID = %d columns (b.ID b, c.ID c))", anchor)
	rows, c := run(twoHop)
	db.SetLimits(Limits{})
	if int64(rows) != anchorPaths {
		t.Fatalf("anchored 2-hop returned %d rows, want the anchor's %d 2-paths", rows, anchorPaths)
	}
	if bound := int64(out[anchor]) + anchorPaths; c.TuplesMaterialized > bound {
		t.Fatalf("anchored 2-hop materialized %d tuples, want <= %d (out-edges + 2-paths; the graph has %d 2-paths)",
			c.TuplesMaterialized, bound, allPaths)
	}

	_, whole := run(`select count(*) from graph_table(pg
		match (a)-[e1]->(b)-[e2]->(c)-[e3]->(a) columns (a.ID a))`)
	triangle := func(v int) int64 {
		_, c := run(fmt.Sprintf("select * from graph_table(pg match (a)-[e1]->(b)-[e2]->(c)-[e3]->(a) where a.ID = %d columns (b.ID b, c.ID c))", v))
		return c.WCOJProbes
	}
	// A typical anchor (the median over 40 evenly spaced nodes with an
	// out-edge) probes at least 100x less than the whole graph; even the
	// hub, whose 2-paths are a few percent of the graph's, probes 10x less.
	var probes []int64
	for v := 0; len(probes) < 40; v += 97 {
		if out[v] > 0 {
			probes = append(probes, triangle(v))
		}
	}
	sort.Slice(probes, func(i, j int) bool { return probes[i] < probes[j] })
	median, hub := probes[len(probes)/2], triangle(anchor)
	if median == 0 || median*100 > whole.WCOJProbes {
		t.Fatalf("median anchored triangle probed %d times, whole graph %d: want at least 100x fewer", median, whole.WCOJProbes)
	}
	if hub*10 > whole.WCOJProbes {
		t.Fatalf("hub-anchored triangle probed %d times, whole graph %d: want at least 10x fewer", hub, whole.WCOJProbes)
	}
	t.Logf("hub %d: out-degree %d, 2-paths %d of %d, tuples materialized %d; triangle probes median %d, hub %d, whole graph %d",
		anchor, out[anchor], anchorPaths, allPaths, c.TuplesMaterialized, median, hub, whole.WCOJProbes)
}
