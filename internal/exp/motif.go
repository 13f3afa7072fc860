package exp

import (
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/value"
)

// motifExp counts small cyclic subgraphs (triangles, diamonds (directed
// 4-cycles), and directed 4-cliques) as plain multi-relation SELECTs, with
// the worst-case-optimal multiway join on and off. The cyclic cores are
// exactly where the binary hash-join chain materializes a super-linear
// intermediate (all wedges before closing the triangle) while the generic
// join's per-variable intersection stays within the AGM bound. The gate
// wants the triangle speedup, identical counts and checksums (the WCOJ
// path must count exactly what the binary chain counts), and the
// WCOJProbes counter proving which path ran. Only the Oracle- and DB2-like
// profiles are measured: their planners take the hash-join chain the
// lowering replaces, while the PostgreSQL-like profile sort-merges
// unanalyzed temps and is covered by the differential tests instead. The
// committed baseline is BENCH_motif.json.
var motifExp = experiment{
	title: "Motif counting: worst-case-optimal multiway join vs binary hash-join chain",
	// Three repetitions, not five: the binary diamond/clique cells are the
	// slow side of the crossover and dominate the wall clock.
	reps:     3,
	variants: onOff(func(e *engine.Engine) { e.DisableWCOJ = true }),
	cells:    motifCells,
}

// motifNodes picks the graph size: the configured node count, floored at
// the issue's reference scale so the committed baselines are comparable.
func motifNodes(cfg Config) int {
	if cfg.Nodes < 5000 {
		return 5000
	}
	return cfg.Nodes
}

// Graph shapes are tuned per motif: the binary baseline's intermediate
// grows with a higher power of the degree for each extra cycle edge
// (wedges ~ Σ in·out, open 4-paths ~ Σ d³), and hub nodes raise those
// moments steeply — the generator's Skew is a power-law exponent where
// values just above 1 are extreme and larger values are milder. The
// triangle keeps the heavy skew (binary materializes millions of wedges
// where the generic join intersects adjacency lists directly); the longer
// cycles get a milder exponent so the binary chain stays feasible. The
// experiment measures a crossover, not a timeout.
const (
	motifTriangleDegree = 16
	motifTriangleSkew   = 1.5
	motifDiamondDegree  = 8
	motifDiamondSkew    = 4
	motifCliqueDegree   = 6
	motifCliqueSkew     = 4
)

// Counting queries. count(*) keeps the output one row while still pinning
// the full multiplicity of the match — any missed or duplicated binding
// changes the count, and the checksum folds the rendered count.
const (
	triangleSQL = "select count(*) from E e1, E e2, E e3 " +
		"where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F"
	diamondSQL = "select count(*) from E e1, E e2, E e3, E e4 " +
		"where e1.T = e2.F and e2.T = e3.F and e3.T = e4.F and e4.T = e1.F"
	clique4SQL = "select count(*) from E e1, E e2, E e3, E e4, E e5, E e6 " +
		"where e1.F = e2.F and e2.F = e3.F and e1.T = e4.F and e4.F = e5.F " +
		"and e2.T = e4.T and e4.T = e6.F and e3.T = e5.T and e5.T = e6.T"
)

// motifCliquePlants is the number of directed 4-cliques planted into the
// clique graph: the pattern needs a transitive tournament on four nodes,
// which a sparse random graph essentially never produces — a zero count
// would make the checksum gate vacuous. The planted node quadruples come
// from a deterministic LCG over the seed, so both committed baselines see
// the same graph.
const motifCliquePlants = 40

// plantCliques appends the six edges of a directed 4-clique (a transitive
// tournament a→b→c→d with all shortcuts) for k random node quadruples.
func plantCliques(edges *relation.Relation, n, k int, seed int64) {
	x := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() int64 {
		x = x*6364136223846793005 + 1442695040888963407
		return int64((x >> 17) % uint64(n))
	}
	for i := 0; i < k; i++ {
		q := [4]int64{next(), next(), next(), next()}
		for a := 0; a < 4; a++ {
			for b := a + 1; b < 4; b++ {
				if q[a] == q[b] {
					continue // degenerate quadruple: skip the self-loop edge
				}
				edges.AppendVals(value.Int(q[a]), value.Int(q[b]), value.Float(1))
			}
		}
	}
}

func motifCells(cfg Config) ([]cell, error) {
	n := motifNodes(cfg.defaults())
	gen := func(deg int, skew float64) *relation.Relation {
		g := graph.Generate(graph.GenSpec{
			N: n, M: n * deg, Directed: true, Skew: skew, Seed: cfg.Seed,
		})
		return g.EdgeRelation()
	}
	clique := gen(motifCliqueDegree, motifCliqueSkew)
	plantCliques(clique, n, motifCliquePlants, cfg.Seed)
	ws := []workload{
		motifWorkload("TRIANGLE", triangleSQL, n, gen(motifTriangleDegree, motifTriangleSkew)),
		motifWorkload("DIAMOND", diamondSQL, n, gen(motifDiamondDegree, motifDiamondSkew)),
		motifWorkload("CLIQUE4", clique4SQL, n, clique),
	}
	var profs []engine.Profile
	for _, p := range profiles() {
		if p.Name != "postgres" {
			profs = append(profs, p)
		}
	}
	return crossProfiles(cfg, ws, profs), nil
}

// motifWorkload loads the edge table and times one execution of the
// counting query.
func motifWorkload(name, query string, nodes int, edges *relation.Relation) workload {
	return workload{
		id: Record{Name: name, Nodes: nodes, Edges: edges.Len()},
		run: func(e *engine.Engine, r *Record) (*relation.Relation, time.Duration, error) {
			if _, err := e.LoadBase("E", edges); err != nil {
				return nil, 0, err
			}
			sel, err := sql.ParseSelect(query)
			if err != nil {
				return nil, 0, err
			}
			x := sql.NewExec(e)
			start := time.Now()
			rel, err := x.Run(sel)
			return rel, time.Since(start), err
		},
	}
}
