package exp

import (
	"fmt"
	"time"

	"repro/internal/algos"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/withplus"
)

// deltaExp measures accumulation-style recursion (transitive closure and
// single-source reachability, the workloads where semi-naive evaluation
// pays) through the WITH+ pipeline, with delta-driven evaluation on and
// off. With delta on, each iteration probes only the Δ frontier and
// IndexBuilds stays at one per base table (the build side is extended
// incrementally, never rebuilt); off, every iteration re-reads the full
// recursive relation. The committed baseline is BENCH_delta.json.
var deltaExp = experiment{
	title:    "Delta: semi-naive frontier evaluation vs naive re-evaluation",
	reps:     3,
	variants: onOff(func(e *engine.Engine) { e.DisableDelta = true }),
	cells:    deltaCells,
}

// deltaNodes picks the delta experiment's graph size: the configured node
// count, floored at 600 so the accumulation loops run long enough for the
// frontier effect to dominate per-iteration fixed costs.
func deltaNodes(cfg Config) int {
	if cfg.Nodes < 600 {
		return 600
	}
	return cfg.Nodes
}

// chainGraph is the worst case for naive accumulation: a path 0→1→…→n-1.
// Reachability from node 0 runs n-1 iterations with a one-row frontier, so
// full evaluation does O(n²) probe work where semi-naive does O(n).
func chainGraph(n int) *graph.Graph {
	g := graph.New(n, true)
	for i := 0; i < n-1; i++ {
		g.AddEdge(int32(i), int32(i+1), 1)
	}
	return g
}

// reachSQL is single-source reachability (BFS-shaped accumulation): the
// frontier-rewritable form of Eq. (5), growing the reached set by union.
func reachSQL(source int) string {
	return fmt.Sprintf(`
with R(ID) as (
  (select ID from V where ID = %d)
  union all
  (select E.T from R, E where R.ID = E.F))
select ID from R`, source)
}

// tcDepth bounds the transitive-closure workload so its cost scales with
// nodes × depth rather than nodes²; deep enough that the accumulated
// relation dwarfs each iteration's frontier.
const tcDepth = 40

func deltaCells(cfg Config) ([]cell, error) {
	n := deltaNodes(cfg.defaults())
	g := chainGraph(n)
	w := func(name, query string) workload {
		return workload{
			id: Record{Name: name, Nodes: g.N, Edges: g.M()},
			run: func(e *engine.Engine, r *Record) (*relation.Relation, time.Duration, error) {
				if _, err := e.LoadBase("E", g.EdgeRelation()); err != nil {
					return nil, 0, err
				}
				if _, err := e.LoadBase("V", g.NodeRelation(nil)); err != nil {
					return nil, 0, err
				}
				start := time.Now()
				res, trace, err := withplus.Run(e, query)
				if err != nil {
					return nil, 0, err
				}
				elapsed := time.Since(start)
				if trace.DeltaEnabled == e.DisableDelta {
					return nil, 0, fmt.Errorf("frontier rewrite %v with DisableDelta=%v", trace.DeltaEnabled, e.DisableDelta)
				}
				r.Iterations = trace.Iterations
				for _, dr := range trace.DeltaRows {
					r.DeltaRowsTotal += int64(dr)
				}
				return res, elapsed, nil
			},
		}
	}
	ws := []workload{w("TC", algos.TCSQL(tcDepth)), w("REACH", reachSQL(0))}
	return crossProfiles(cfg, ws, profiles()), nil
}
