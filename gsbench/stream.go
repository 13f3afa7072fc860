package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"repro/graphsql"
	"repro/internal/algos"
	"repro/internal/graph"
	"repro/internal/relation"
)

// The data set: the Web-Google stand-in at 5,000 nodes (58,300 edges),
// generated from the workload seed. The program only ever sees the tables
// and statements built here.
const (
	datasetCode = "WG"
	defaultN    = 5000
	prIters     = 15
	prDamping   = 0.85
	graphDDL    = `create property graph pg (
  vertex tables (V key (ID)),
  edge tables (E source key (F) references V destination key (T) references V))`
)

type dataset struct {
	n    int
	g    *graph.Graph // directed edges, loaded as E
	norm *graph.Graph // out-degree-normalized weights, loaded as En
	sym  *graph.Graph // both directions, loaded as Es (WCC's input)
	out  [][]int32    // out-neighbours in edge order
	srcs []int32      // nodes with an out-edge: statement sources are drawn here
}

func newDataset(n int, seed int64) *dataset {
	g := graphsql.MustGenerate(datasetCode, n, seed)
	d := &dataset{n: n, g: g, out: make([][]int32, n)}
	deg := g.OutDegrees()
	d.norm = graph.New(g.N, g.Directed)
	for _, e := range g.Edges {
		d.norm.AddEdge(e.F, e.T, 1/float64(deg[e.F]))
		d.out[e.F] = append(d.out[e.F], e.T)
	}
	d.sym = g.Symmetrize()
	for v := range d.out {
		if len(d.out[v]) > 0 {
			d.srcs = append(d.srcs, int32(v))
		}
	}
	return d
}

// tables returns the base tables a workload loads, freshly built so no two
// databases share a relation.
func (d *dataset) tables(workload string) []namedRel {
	ts := []namedRel{{"E", d.g.EdgeRelation()}, {"V", d.g.NodeRelation(nil)}}
	if workload == "analytics" {
		ts = append(ts, namedRel{"En", d.norm.EdgeRelation()}, namedRel{"Es", d.sym.EdgeRelation()})
	}
	return ts
}

type namedRel struct {
	name string
	rel  *relation.Relation
}

// loadDB loads the workload's tables and property graph into db.
func (d *dataset) loadDB(ctx context.Context, db *graphsql.DB, workload string) error {
	for _, t := range d.tables(workload) {
		if err := db.LoadRelation(t.name, t.rel); err != nil {
			return fmt.Errorf("load %s: %w", t.name, err)
		}
	}
	if _, err := db.Query(ctx, graphDDL); err != nil {
		return fmt.Errorf("create property graph: %w", err)
	}
	return nil
}

// stmt is one statement of a workload's stream.
type stmt struct {
	Index   int
	Kind    string
	Profile string
	SQL     string
	Pattern string // serve-mixed hop: the body sent with the wire's match verb
	Src     int32  // source or anchor node; -1 when the statement has none
	Fresh   int32  // serve-mixed insert: the new edge's target id; -1 otherwise
}

func (s stmt) write() bool { return s.Kind == "insert" }

// stream is a workload's statement sequence: statement i is a pure
// function of (workload, seed, i) and the generated graph, which is itself
// a function of the seed.
type stream struct {
	workload string
	seed     int64
	d        *dataset
}

// Statement kinds per cycle. Analytics runs the paper's WITH+ texts plus a
// whole-graph triangle count on the hash-join profile and again on the
// sort/index-merge one. On the hash-join profile WCC, SSSP and BFS run
// twice: that puts six statements below PageRank and six above it, so the
// median falls in the middle of the oracle PageRank, whose cost repeats
// between runs, instead of between the postgres SSSP and BFS, whose costs
// moved half again as much. Pattern runs anchored MATCH shapes. The
// triangle runs three times, so the median falls inside it: below it lie
// reach and any shortest, above it the 2-hop. Its cost follows the whole
// graph, not the anchor, and repeats between runs; the shortest path's
// follows the anchor's eccentricity and the seed's graph, so a median
// taken there moved half again as much from run to run.
var (
	analyticsCycle = []struct{ profile, kind string }{
		{"oracle", "pr"}, {"oracle", "wcc"}, {"oracle", "sssp"}, {"oracle", "bfs"}, {"oracle", "tri"},
		{"oracle", "wcc"}, {"oracle", "sssp"}, {"oracle", "bfs"},
		{"postgres", "pr"}, {"postgres", "wcc"}, {"postgres", "sssp"}, {"postgres", "bfs"}, {"postgres", "tri"},
	}
	analyticsProfs = []string{"oracle", "postgres"}
	patternKinds   = []string{"2hop", "tri", "reach", "tri", "short", "tri"}
)

func (s *stream) cycleLen() int {
	switch s.workload {
	case "analytics":
		return len(analyticsCycle)
	case "pattern":
		return len(patternKinds)
	}
	return 1
}

func (s *stream) at(i int) stmt {
	rng := rand.New(rand.NewSource(int64(mix(uint64(s.seed), uint64(i)))))
	st := stmt{Index: i, Profile: "oracle", Src: -1, Fresh: -1}
	src := func() int32 { return s.d.srcs[rng.Intn(len(s.d.srcs))] }
	switch s.workload {
	case "analytics":
		c := analyticsCycle[i%len(analyticsCycle)]
		st.Profile, st.Kind = c.profile, c.kind
		switch st.Kind {
		case "pr":
			st.SQL = algos.PageRankSQL(s.d.n, prIters, prDamping)
		case "wcc":
			st.SQL = wccSQL
		case "sssp":
			st.Src = src()
			st.SQL = algos.SSSPSQL(int(st.Src))
		case "bfs":
			st.Src = src()
			st.SQL = algos.BFSSQL(int(st.Src))
		case "tri":
			st.SQL = triangleCountSQL
		}
	case "pattern":
		st.Kind = patternKinds[i%len(patternKinds)]
		st.Src = src()
		st.SQL = fmt.Sprintf(patternSQL[st.Kind], st.Src)
	case "serve-mixed":
		k := int32(rng.Intn(s.d.n))
		st.Src = k
		st.Kind = s.serveKind(i)
		switch st.Kind {
		case "point":
			st.SQL = fmt.Sprintf("select T, ew from E where F = %d", k)
		case "hop":
			st.Pattern = fmt.Sprintf("(a)-[e]->(b) where a.ID = %d columns (b.ID b)", k)
			st.SQL = "select * from graph_table(pg match " + st.Pattern + ")"
		case "rec":
			st.SQL = fmt.Sprintf("with R(T) as ((select T from E where F = %d) union all "+
				"(select E.T from R, E where R.T = E.F) maxrecursion 2) select T from R", k)
		case "insert":
			// The new edge points at a fresh node id, so a read's answer
			// depends on this write only through rows naming that id: the
			// answer check can set aside exactly the writes that were in
			// flight beside a read.
			st.Fresh = int32(s.d.n + i)
			st.SQL = fmt.Sprintf("insert into E values (%d, %d, 1.0)", k, st.Fresh)
		}
	default:
		panic("unknown workload " + s.workload)
	}
	return st
}

// serveBlock is the serve-mixed mix, exact in every block of 20
// statements: 60% point selects, 20% 1-hop MATCH, 10% depth-2 recursions
// and 10% inserts. The order inside a block is shuffled from the seed.
// Exact blocks keep the share of recursions, which dominate the cost, the
// same in every window of whole blocks.
var serveBlock = []string{
	"point", "point", "point", "point", "point", "point", "point", "point", "point", "point", "point", "point",
	"hop", "hop", "hop", "hop", "rec", "rec", "insert", "insert",
}

func (s *stream) serveKind(i int) string {
	b := len(serveBlock)
	rng := rand.New(rand.NewSource(int64(mix(uint64(s.seed), uint64(i/b)) ^ 0x5ca1ab1e)))
	return serveBlock[rng.Perm(b)[i%b]]
}

// checksum folds the texts of statements [0, n) into one FNV-64a value, the
// stream checksum each run prints.
func (s *stream) checksum(n int) string {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		fmt.Fprintf(h, "%s\n", s.at(i).SQL)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// mix is SplitMix64's finalizer over (seed, i), giving each statement an
// independent generator.
func mix(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + i + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// wccSQL is the paper's WCC text over the symmetrized edge table: Eq. (6)
// needs both directions, and Es aliased as E keeps the text otherwise
// verbatim.
var wccSQL = strings.Replace(algos.WCCSQL(), "from C, E where", "from C, Es E where", 1)

const triangleCountSQL = `select count(*) from graph_table(pg
  match (a)-[e1]->(b)-[e2]->(c)-[e3]->(a) columns (a.ID a))`

var patternSQL = map[string]string{
	"2hop":  "select * from graph_table(pg match (a)-[e1]->(b)-[e2]->(c) where a.ID = %d columns (b.ID b, c.ID c))",
	"tri":   "select * from graph_table(pg match (a)-[e1]->(b)-[e2]->(c)-[e3]->(a) where a.ID = %d columns (b.ID b, c.ID c))",
	"reach": "select * from graph_table(pg match (a)-[e]->{1,3}(b) where a.ID = %d columns (b.ID b))",
	"short": "select * from graph_table(pg match any shortest (a)-[e]->(b) where a.ID = %d columns (b.ID b, path_cost() dist))",
}
