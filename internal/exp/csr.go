package exp

import (
	"time"

	"repro/internal/algos"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/withplus"
)

// csrExp measures frontier-heavy workloads (recursions whose
// per-iteration work is dominated by probing an immutable edge table with
// a frontier) with the CSR adjacency access path on and off. The gate
// wants the speedup, identical checksums (the CSR path must be
// byte-identical to the hash path), and CSRBuilds ≤ 1 per recursion (one
// build amortized over every iteration, appends extending it in place).
// The PostgreSQL-like profile plans sort-merge joins for unanalyzed temps,
// so its cells move little either way: the access path is plan-dependent,
// which is the point of keeping them in the table. The committed baseline
// is BENCH_csr.json.
var csrExp = experiment{
	title: "CSR: adjacency access path vs cached hash index",
	// Five repetitions: wall-clock noise on shared machines is one-sided,
	// and the fastest repetition is the least disturbed one.
	reps:     5,
	variants: onOff(func(e *engine.Engine) { e.DisableCSR = true }),
	cells:    csrCells,
}

// csrNodes picks the experiment's graph size: the configured node count,
// floored high enough that the per-iteration join dominates fixed costs.
func csrNodes(cfg Config) int {
	if cfg.Nodes < 5000 {
		return 5000
	}
	return cfg.Nodes
}

// csrAvgDegree shapes the random graph for the vector workloads. Frontiers
// here are thousands of rows wide (unlike the delta experiment's chains,
// whose one-row frontiers measure the Δ machinery, not the probe path), and
// the fused kernels fold join outputs straight into n dense groups, so the
// per-iteration fixed work is O(n) while probe work scales with the edge
// count — a denser graph makes the access path the dominant cost.
const csrAvgDegree = 16

// csrTCDegree and csrTCDepth shape the transitive-closure workload: the
// accumulated closure grows with reachable pairs, so TC runs on a sparser
// DAG with a shallow recursion bound — frontiers stay thousands of rows
// wide while |TC| stays near-linear instead of saturating toward n² the
// way it does on a strongly connected random graph.
const csrTCDegree = 3
const csrTCDepth = 3

func csrGraph(cfg Config) *graph.Graph {
	n := csrNodes(cfg)
	return graph.Generate(graph.GenSpec{
		N: n, M: n * csrAvgDegree, Directed: true, Skew: 2.5, Seed: cfg.Seed,
	})
}

func csrTCGraph(cfg Config) *graph.Graph {
	n := csrNodes(cfg) / 2
	return graph.GenerateDAG(n, n*csrTCDegree, cfg.Seed)
}

// withPlusWorkload loads the graph and runs a WITH+ statement (the SQL
// equi-join frontier path); the timed region includes the load.
func withPlusWorkload(name, query string, g *graph.Graph) workload {
	return csrWorkload(name, g, func(e *engine.Engine) (*relation.Relation, int, error) {
		if _, err := e.LoadBase("E", g.EdgeRelation()); err != nil {
			return nil, 0, err
		}
		if _, err := e.LoadBase("V", g.NodeRelation(nil)); err != nil {
			return nil, 0, err
		}
		res, trace, err := withplus.Run(e, query)
		if err != nil {
			return nil, 0, err
		}
		return res, trace.Iterations, nil
	})
}

// csrWorkload times run and records its iterations.
func csrWorkload(name string, g *graph.Graph, run func(e *engine.Engine) (*relation.Relation, int, error)) workload {
	return workload{
		id: Record{Name: name, Nodes: g.N, Edges: g.M()},
		run: func(e *engine.Engine, r *Record) (*relation.Relation, time.Duration, error) {
			start := time.Now()
			rel, iters, err := run(e)
			if err != nil {
				return nil, 0, err
			}
			elapsed := time.Since(start)
			r.Iterations = iters
			return rel, elapsed, nil
		},
	}
}

func csrCells(cfg Config) ([]cell, error) {
	cfg = cfg.defaults()
	g := csrGraph(cfg)
	ws := []workload{
		// The SQL frontier path: Δ ⋈ E equi-joins inside WITH+ recursion.
		withPlusWorkload("REACH", reachSQL(0), g),
		withPlusWorkload("TC", algos.TCSQL(csrTCDepth), csrTCGraph(cfg)),
		// The fused MV-join path: vector × edge-matrix fixpoints.
		csrWorkload("BFS", g, func(e *engine.Engine) (*relation.Relation, int, error) {
			res, err := algos.RunBFS(e, g, algos.Params{Source: 0})
			if err != nil {
				return nil, 0, err
			}
			return res.Rel, res.Iterations, nil
		}),
		csrWorkload("PR", g, func(e *engine.Engine) (*relation.Relation, int, error) {
			res, err := algos.RunPageRank(e, g, algos.Params{Iters: cfg.Iters})
			if err != nil {
				return nil, 0, err
			}
			return res.Rel, res.Iterations, nil
		}),
	}
	return crossProfiles(cfg, ws, profiles()), nil
}
