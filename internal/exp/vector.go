package exp

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/value"
	"repro/internal/withplus"
)

// vectorExp measures the scan-heavy SQL shapes the vectorized kernels
// target (residual filters, computed projections, integer-keyed
// aggregation, and a WITH+ recursion whose recursive step carries a
// non-equi residual filter) with the batch kernels on and off. The gate
// wants the speedup, identical checksums (the vectorized path must be
// byte-identical to the row path), and the VectorizedBatches counter
// proving which path ran. The committed baseline is BENCH_vector.json.
var vectorExp = experiment{
	title: "Vectorized execution: batch kernels vs row-at-a-time closures",
	// Five repetitions; the record keeps the least-disturbed one.
	reps:     5,
	variants: onOff(func(e *engine.Engine) { e.DisableVectorized = true }),
	cells:    vectorCells,
}

// vectorQuery is one scan-heavy benchmark: a plain SELECT executed
// queries times per repetition, or a WITH+ recursion executed once.
type vectorQuery struct {
	name    string
	query   string
	with    bool // run through the WITH+ compiler instead of plain SELECT
	queries int  // timed executions per repetition
}

// vectorNodes floors the graph size so the per-query scan dominates fixed
// costs (parse, plan, catalog lookups).
func vectorNodes(cfg Config) int {
	if cfg.Nodes < 5000 {
		return 5000
	}
	return cfg.Nodes
}

// vectorAvgDegree shapes the edge table: the experiment measures tuple
// throughput, so the table just needs to be wide enough that per-row costs
// dominate.
const vectorAvgDegree = 16

// vectorEdgeRelation builds E(F, T, ew) from the generated graph with
// deterministic pseudo-random weights in [0, 1) — the generator's constant
// 1.0 weights would make every float filter all-or-nothing.
func vectorEdgeRelation(g *graph.Graph, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed + 1))
	r := relation.NewWithCap(graph.EdgeSchema(), len(g.Edges))
	for _, e := range g.Edges {
		r.Tuples = append(r.Tuples, relation.Tuple{
			value.Int(int64(e.F)), value.Int(int64(e.T)), value.Float(rng.Float64()),
		})
	}
	return r
}

func vectorQueries() []vectorQuery {
	return []vectorQuery{
		// Residual WHERE: one typed column⋈constant kernel and one
		// column⋈column kernel composed by selection-vector refinement.
		{name: "FILTER", queries: 8,
			query: "select F, T from E where ew > 0.7 and F <> T"},
		// Computed projection: arithmetic kernels into one flat output array.
		{name: "PROJECT", queries: 8,
			query: "select F + T as s, ew * 2.0 as w2, F from E"},
		// Integer-keyed aggregation: dense group ids, no per-row map probe.
		{name: "AGG", queries: 8,
			query: "select F, sum(ew) as s, count(*) as n, max(ew) as mx from E group by F"},
		// WITH+ recursion with a non-equi residual in the recursive step: the
		// vectorized filter runs once per iteration inside the loop.
		{name: "REACH", with: true, queries: 1,
			query: `
with R(ID) as (
  (select ID from V where ID = 0)
  union all
  (select E.T from R, E where R.ID = E.F and E.ew > 0.2))
select ID from R`},
	}
}

// runVectorQuery loads the data and executes the workload's timed loop,
// returning the final relation and total duration.
func runVectorQuery(e *engine.Engine, w vectorQuery, edges, nodes *relation.Relation) (*relation.Relation, time.Duration, error) {
	if _, err := e.LoadBase("E", edges); err != nil {
		return nil, 0, err
	}
	if _, err := e.LoadBase("V", nodes); err != nil {
		return nil, 0, err
	}
	if w.with {
		start := time.Now()
		res, _, err := withplus.Run(e, w.query)
		return res, time.Since(start), err
	}
	stmt, err := sql.ParseStatement(w.query)
	if err != nil {
		return nil, 0, err
	}
	q, ok := stmt.(*sql.QueryStmt)
	if !ok {
		return nil, 0, fmt.Errorf("vector: %s is not a plain SELECT", w.name)
	}
	x := sql.NewExec(e)
	var res *relation.Relation
	start := time.Now()
	for i := 0; i < w.queries; i++ {
		res, err = x.Run(q.Select)
		if err != nil {
			return nil, 0, err
		}
	}
	return res, time.Since(start), nil
}

func vectorCells(cfg Config) ([]cell, error) {
	cfg = cfg.defaults()
	n := vectorNodes(cfg)
	g := graph.Generate(graph.GenSpec{
		N: n, M: n * vectorAvgDegree, Directed: true, Skew: 2.5, Seed: cfg.Seed,
	})
	edges := vectorEdgeRelation(g, cfg.Seed)
	nodes := g.NodeRelation(nil)
	var ws []workload
	for _, q := range vectorQueries() {
		ws = append(ws, workload{
			id: Record{Name: q.name, Nodes: g.N, Edges: g.M(), Queries: q.queries},
			run: func(e *engine.Engine, r *Record) (*relation.Relation, time.Duration, error) {
				return runVectorQuery(e, q, edges, nodes)
			},
		})
	}
	return crossProfiles(cfg, ws, profiles()), nil
}
