package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit. BENCHMARK.json records
// the gated end-to-end set and the per-layer set; the tests keep the two in
// step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every workload reports on an untraced run, each
// with the bound by which it may worsen before a change counts as a
// regression. Each applies to all three workloads, so every run prints
// every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops", "ops/s", "higher", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"alloc_bytes_per_op", "B", "lower", 0.10},
	{"gc_cycles_per_kop", "count", "lower", 0.25},
	{"peak_heap_mb", "MB", "lower", 0.25},
}

// workloadOnly are end-to-end metrics that exist on some workloads only
// (a percentile needs ten samples beyond it; only serve-mixed has an open
// loop and writes). They are printed where they apply and recorded by the
// steadiness mode, but they are not in the gated set, which every workload
// must report in full.
var workloadOnly = []metricDef{
	{"latency_ms_p90", "ms", "lower", 0},
	{"latency_ms_p99", "ms", "lower", 0},
	{"max_rate_ops", "ops/s", "higher", 0},
	{"write_latency_ms_p50", "ms", "lower", 0},
	{"write_latency_ms_p90", "ms", "lower", 0},
	{"error_rate", "ratio", "lower", 0},
}

// perLayer are the traced run's metrics, one group per module. Operator
// times are shares of the traced statement time, so a workload that never
// runs an operator reports 0 rather than a time that cannot vary.
var perLayer = []metricDef{
	{"server.ping_rtt_us", "us", "lower", 0},
	{"server.wire_us_p50", "us", "lower", 0},
	{"server.queue_wait_share", "ratio", "lower", 0},
	{"server.shed", "count", "lower", 0},
	{"client.retries", "count", "lower", 0},
	{"sql.parse_us", "us", "lower", 0},
	{"sql.lower_us", "us", "lower", 0},
	{"sql.exec_ms", "ms", "lower", 0},
	{"sql.rows_examined_per_row", "ratio", "lower", 0},
	{"withplus.prepare_us", "us", "lower", 0},
	{"withplus.run_ms", "ms", "lower", 0},
	{"psm.iterations", "count", "lower", 0},
	{"psm.iteration_self_ms", "ms", "lower", 0},
	{"engine.join_share", "ratio", "lower", 0},
	{"engine.merge_join_share", "ratio", "lower", 0},
	{"engine.ubu_share", "ratio", "lower", 0},
	{"engine.join_build_share", "ratio", "lower", 0},
	{"engine.join_probe_share", "ratio", "lower", 0},
	{"engine.group_bys_per_op", "count", "lower", 0},
	{"engine.tuples_materialized_per_op", "count", "lower", 0},
	{"engine.bytes_materialized_per_op", "B", "lower", 0},
	{"ra.vector_batches_per_op", "count", "higher", 0},
	{"ra.row_fallback_ratio", "ratio", "lower", 0},
	{"ra.wcoj_probes_per_op", "count", "lower", 0},
	{"ra.wcoj_yield", "ratio", "higher", 0},
	{"catalog.csr_builds_per_kop", "count", "lower", 0},
	{"catalog.csr_hit_ratio", "ratio", "higher", 0},
	{"catalog.index_builds_per_kop", "count", "lower", 0},
	{"catalog.index_hit_ratio", "ratio", "higher", 0},
	{"storage.wal_bytes_per_op", "B", "lower", 0},
	{"storage.wal_records_per_op", "count", "lower", 0},
	{"storage.commits_per_op", "count", "lower", 0},
	{"storage.page_reads_per_op", "count", "lower", 0},
	{"storage.pool_hit_ratio", "ratio", "higher", 0},
	{"govern.budget_trips", "count", "lower", 0},
	{"govern.timeouts", "count", "lower", 0},
	{"bench.generator_lag_ms_p99", "ms", "lower", 0},
	{"bench.backlog_max", "count", "lower", 0},
	{"bench.trace_overhead", "ratio", "higher", 0},
}

// report is one run's outcome: the answer-check tally, every metric the
// run measured, and free-form lines (sample counts, checksums) printed
// ahead of the metrics.
type report struct {
	Workload  string
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Samples   map[string]int // sample count behind a percentile metric
	Notes     []string
}

func newReport(workload string) *report {
	return &report{Workload: workload, Metrics: map[string]float64{}, Samples: map[string]int{}}
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records a wrong or failed statement; the run then exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if r.Failed <= 20 {
		r.note("FAIL "+format, args...)
	}
}

// print writes the human-readable lines and, last, the one-line JSON
// result carrying the gated (trace 0) or per-layer (trace 1) metrics.
func (r *report) print(w io.Writer, traced bool) error {
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	defs := append(append([]metricDef{}, endToEnd...), workloadOnly...)
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-34s %16.6f %s", d.Name, v, d.Unit)
		if n, ok := r.Samples[d.Name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Failed == 0, max(r.Attempted, 1), r.Failed, map[string]metricValue{}}
	gated := endToEnd
	if traced {
		gated = perLayer
	}
	var missing []string
	for _, d := range gated {
		v, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		out.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("%s: metrics not measured: %s", r.Workload, strings.Join(missing, ", "))
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// percentile returns the nearest-rank q-quantile of xs and whether at least
// ten samples lie beyond it, the rule for reporting a percentile.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s)-rank >= 10
}

// median is the plain median (mean of the middle pair for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// setPercentile stores a latency percentile when the sample supports it.
func (r *report) setPercentile(name string, xs []float64, q float64) {
	v, ok := percentile(xs, q)
	if q == 0.5 {
		v = median(xs)
	}
	if !ok {
		r.note("%s not reported: %d samples leave fewer than 10 beyond it", name, len(xs))
		return
	}
	r.Metrics[name] = v
	r.Samples[name] = len(xs)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
