package exp

import (
	"fmt"
	"time"

	"repro/internal/algos"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/relation"
)

// perfExp measures the iterative algorithms on the Web Google stand-in
// across the three profiles, with and without a counting span sink: the
// observability overhead A/B. The counters expose the iteration-aware
// executor: with fusion on, IndexBuilds stays O(1) per base table and
// TuplesMaterialized drops to zero on the MV-/MM-join path; with -nofusion
// the per-iteration rebuild and materialization costs show up directly.
// The committed BENCH_before.json (-nofusion) and BENCH_after.json
// (default) hold the unobserved variant of each executor.
var perfExp = experiment{
	title: "Perf: iterative algorithms under the iteration-aware executor",
	// Three repetitions filter scheduler and cache noise out of the
	// single-shot wall-clock times.
	reps: 3,
	variants: []variant{
		{"off", nil},
		{"on", func(e *engine.Engine) { e.SetObserver(&obs.CountingSink{}) }},
	},
	cells: perfCells,
}

// perfAlgos are the iterative algorithms measured by the perf experiment:
// the fixed-iteration MV-join loops (PR, HITS) and a converging traversal
// (WCC), together covering the executor paths the fused kernels replace.
var perfAlgos = []string{"PR", "HITS", "WCC"}

func perfCells(cfg Config) ([]cell, error) {
	cfg = cfg.defaults()
	d, err := dataset.ByCode("WG")
	if err != nil {
		return nil, err
	}
	g := d.Generate(cfg.Nodes, cfg.Seed)
	var ws []workload
	for _, code := range perfAlgos {
		a, err := algos.ByCode(code)
		if err != nil {
			return nil, fmt.Errorf("perf: %w", err)
		}
		ws = append(ws, workload{
			id: Record{Name: code, Dataset: d.Code, Nodes: g.N, Edges: g.M()},
			run: func(e *engine.Engine, r *Record) (*relation.Relation, time.Duration, error) {
				start := time.Now()
				res, err := a.Run(e, g, algoParams("WG", cfg))
				if err != nil {
					return nil, 0, err
				}
				elapsed := time.Since(start)
				r.Iterations = res.Iterations
				return res.Rel, elapsed, nil
			},
		})
	}
	return crossProfiles(cfg, ws, profiles()), nil
}
