package exp

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/value"
)

// variant is one engine configuration an A/B experiment measures: its
// record label and the knob it sets on each fresh engine (nil: none).
type variant struct {
	name string
	set  func(e *engine.Engine)
}

// onOff is the usual pair: the engine as configured ("on") and the same
// engine with the experiment's mechanism disabled ("off").
func onOff(disable func(e *engine.Engine)) []variant {
	return []variant{{"on", nil}, {"off", disable}}
}

// workload is one measured job: the identity fields its records start
// from, and the run that fills in the fields only it can measure and
// returns its result relation (nil if none) and the duration of its timed
// region.
type workload struct {
	id  Record
	run func(e *engine.Engine, r *Record) (*relation.Relation, time.Duration, error)
}

// cell is one workload on one profile.
type cell struct {
	workload
	prof engine.Profile
}

// experiment is one A/B measurement: its workloads, the variants they run
// under, and how many repetitions each (cell, variant) gets.
type experiment struct {
	title    string
	reps     int
	variants []variant
	cells    func(cfg Config) ([]cell, error)
}

// abOrder lists the A/B experiments in presentation order.
var abOrder = []string{"perf", "delta", "csr", "vector", "motif", "concurrent"}

var experiments = map[string]experiment{
	"perf": perfExp, "delta": deltaExp, "csr": csrExp,
	"vector": vectorExp, "motif": motifExp, "concurrent": concurrentExp,
}

// ABExperiments lists the experiments Run measures and Gate checks.
func ABExperiments() []string { return abOrder }

// Run measures an A/B experiment: every cell under every variant, the
// experiment's repetition count each, with the variants interleaved rep by
// rep so drift hits both alike. Each run gets a fresh engine. A forced GC
// precedes each cell, so no cell pays for an earlier cell's garbage; within
// a cell the repetitions run back to back, as the committed baselines were
// measured, and the minimum filters out the ones a collection disturbed.
//
// A record keeps the minimum duration and the first repetition's counters
// and result: its row count and checksum, and its value when the result is
// a single integer (a count). Variants of a cell come out on adjacent
// records.
func Run(name string, cfg Config) ([]Record, error) {
	x, ok := experiments[name]
	if !ok {
		return nil, fmt.Errorf("unknown A/B experiment %q", name)
	}
	cells, err := x.cells(cfg)
	if err != nil {
		return nil, err
	}
	var out []Record
	for _, c := range cells {
		recs := make([]Record, len(x.variants))
		best := make([]time.Duration, len(x.variants))
		runtime.GC()
		for rep := 0; rep < x.reps; rep++ {
			for i, v := range x.variants {
				e := newEngine(c.prof, cfg)
				if v.set != nil {
					v.set(e)
				}
				r := c.id
				rel, d, err := c.run(e, &r)
				if err != nil {
					return nil, fmt.Errorf("%s: %s on %s, variant %s: %w", name, r.Name, r.Profile, v.name, err)
				}
				obs.Global.Counter("bench.runs").Inc()
				obs.Global.Histogram("bench.run_us").Observe(d.Microseconds())
				if rep == 0 {
					r.Experiment, r.Variant = name, v.name
					r.CountersSnapshot = e.Cnt.Snapshot()
					if cs, ok := e.Observer().(*obs.CountingSink); ok {
						r.Spans = cs.Count()
					}
					if rel != nil {
						r.RowsFinal, r.Checksum = rel.Len(), RelChecksum(rel)
						if rel.Len() == 1 && len(rel.Tuples[0]) == 1 && rel.Tuples[0][0].K == value.KindInt {
							r.Count = rel.Tuples[0][0].I
						}
					}
					recs[i] = r
				}
				if rep == 0 || d < best[i] {
					best[i] = d
				}
			}
		}
		for i := range recs {
			recs[i].NsOp = best[i].Nanoseconds() / int64(max(recs[i].Queries, 1))
			recs[i].Millis = float64(best[i].Microseconds()) / 1000.0
		}
		out = append(out, recs...)
	}
	return out, nil
}

// crossProfiles pairs each workload with each profile, workload-major,
// recording the executor knobs Run's engines are built with.
func crossProfiles(cfg Config, ws []workload, profs []engine.Profile) []cell {
	var out []cell
	for _, w := range ws {
		for _, p := range profs {
			c := cell{w, p}
			c.id.Profile, c.id.Workers, c.id.NoFusion = p.Name, cfg.Workers, cfg.NoFusion
			out = append(out, c)
		}
	}
	return out
}
