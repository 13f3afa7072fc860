package exp

import (
	"fmt"
	"sort"
	"strings"
)

// The A/B gate: one declarative spec per experiment, evaluated by Gate
// over a live run (both variants) and the experiment's committed baseline.
// Wall-clock bounds are loose on purpose (wall clock on shared 2-CPU
// machines varies ±30%): they catch order-of-magnitude mistakes such as an
// allocation or clock read on a per-tuple path, while the exact pins on
// counters and checksums catch everything deterministic.
type gateSpec struct {
	// baseline is the committed record file, relative to the repo root.
	baseline string
	// pin is the variant compared with the baseline's records of the same
	// variant: "off" for perf (the unobserved run), "on" elsewhere.
	pin string
	// agree lists fields the on and off variants must report equal per
	// cell: the differential-correctness half of every A/B.
	agree []string
	// pinned lists fields the pin variant must report exactly as the
	// baseline does.
	pinned []string
	// bounds constrain one variant's counters per cell, proving which
	// physical path ran.
	bounds []bound
	// ratios are the wall-clock (or throughput) bounds.
	ratios []ratio
}

// bound requires variant's field op val in every cell.
type bound struct {
	variant, field, op string
	val                float64
}

func (b bound) holds(x float64) bool {
	switch b.op {
	case "<=":
		return x <= b.val
	case "==":
		return x == b.val
	case ">":
		return x > b.val
	}
	panic("exp: unknown bound op " + b.op)
}

// ratio bounds num/den of one field. Each operand reads a variant ("on",
// "off", or "base" for the baseline) of the cell under test, or of a fixed
// cell. With atLeast = 0 every selected cell must pass; otherwise at least
// that many must.
type ratio struct {
	what     string
	field    string
	num, den operand
	min, max float64 // 0: that side unbounded
	only     func(r Record) bool
	atLeast  int
}

type operand struct {
	variant string
	cell    string // cell key; "": the cell under test
}

var onSide, offSide, baseSide = operand{variant: "on"}, operand{variant: "off"}, operand{variant: "base"}

func oracleOrDB2(r Record) bool { return r.Profile == "oracle" || r.Profile == "db2" }

// The bounds below are the ones the gate has carried since each experiment
// landed; loosening one needs a stated reason in CHANGES.md.
const (
	perfRegressionX  = 1.75 // observer-off ms vs committed BENCH_after.json
	perfOverheadX    = 1.40 // observer-on ms vs observer-off ms
	deltaSpeedupX    = 2.0  // every oracle/db2 cell
	csrSpeedupX      = 1.5  // on at least csrMinCells oracle/db2 cells
	csrMinCells      = 2
	vectorSpeedupX   = 1.5 // on at least vectorMinCells oracle/db2 cells
	vectorMinCells   = 2
	concurrentScaleX = 3.0 // stmt/s from 1 to 8 sessions
	wcojSpeedupX     = 2.0 // every TRIANGLE cell
)

var gates = map[string]gateSpec{
	// perf: the observer-off run stays near the committed baseline and
	// executes exactly the same operators; the observer-on run reports
	// spans and costs little over observer-off.
	"perf": {
		baseline: "BENCH_after.json",
		pin:      "off",
		pinned: []string{"joins", "group_bys", "index_builds", "index_cache_hits",
			"csr_builds", "csr_cache_hits", "tuples_materialized", "iterations"},
		bounds: []bound{{"on", "spans", ">", 0}},
		ratios: []ratio{
			{what: "observer-off vs baseline", field: "ms", num: offSide, den: baseSide, max: perfRegressionX},
			{what: "observer overhead", field: "ms", num: onSide, den: offSide, max: perfOverheadX},
		},
	},
	// delta: same fixpoint either way, no build-side index rebuilds during
	// accumulation, and the frontier speedup on every oracle/db2 cell.
	"delta": {
		baseline: "BENCH_delta.json",
		pin:      "on",
		agree:    []string{"rows_final", "iterations"},
		pinned: []string{"joins", "index_builds", "index_cache_hits", "csr_builds",
			"csr_cache_hits", "tuples_materialized", "iterations", "rows_final", "delta_rows_total"},
		bounds: []bound{{"on", "index_builds", "<=", 1}},
		ratios: []ratio{{what: "frontier speedup", field: "ms", num: offSide, den: onSide,
			min: deltaSpeedupX, only: oracleOrDB2}},
	},
	// csr: byte-identical results across access paths, one CSR build per
	// recursion and none when disabled. The fused vector workloads (BFS,
	// PR) carry the speedup; the SQL-path cells (TC, REACH) are dominated
	// by join-output materialization and dedup.
	"csr": {
		baseline: "BENCH_csr.json",
		pin:      "on",
		agree:    []string{"checksum", "rows_final", "iterations"},
		pinned: []string{"joins", "csr_builds", "csr_cache_hits", "index_builds",
			"index_cache_hits", "iterations", "rows_final", "checksum"},
		bounds: []bound{
			{"on", "csr_builds", "<=", 1},
			{"off", "csr_builds", "==", 0},
			{"off", "csr_cache_hits", "==", 0},
		},
		ratios: []ratio{{what: "csr speedup", field: "ms", num: offSide, den: onSide,
			min: csrSpeedupX, only: oracleOrDB2, atLeast: csrMinCells}},
	},
	// vector: byte-identical results, batches dispatched with no row
	// fallbacks when on and none when off. FILTER and AGG carry the
	// speedup; PROJECT is bound by output materialization and REACH by
	// join/dedup work.
	"vector": {
		baseline: "BENCH_vector.json",
		pin:      "on",
		agree:    []string{"checksum", "rows_final"},
		pinned:   []string{"rows_final", "checksum", "vectorized_batches", "row_fallbacks"},
		bounds: []bound{
			{"on", "vectorized_batches", ">", 0},
			{"on", "row_fallbacks", "==", 0},
			{"off", "vectorized_batches", "==", 0},
		},
		ratios: []ratio{{what: "vector speedup", field: "ms", num: offSide, den: onSide,
			min: vectorSpeedupX, only: oracleOrDB2, atLeast: vectorMinCells}},
	},
	// motif: identical counts and checksums, the multiway operator probed
	// when on and untouched when off, and the triangle speedup (the skewed
	// triangle graph is where the binary chain materializes every wedge;
	// DIAMOND and CLIQUE4 run on milder graphs).
	"motif": {
		baseline: "BENCH_motif.json",
		pin:      "on",
		agree:    []string{"count", "checksum"},
		pinned:   []string{"count", "checksum", "joins", "wcoj_builds", "wcoj_probes", "nodes", "edges"},
		bounds: []bound{
			{"on", "wcoj_probes", ">", 0},
			{"off", "wcoj_probes", "==", 0},
			{"off", "wcoj_builds", "==", 0},
		},
		ratios: []ratio{{what: "triangle speedup", field: "ms", num: offSide, den: onSide,
			min: wcojSpeedupX, only: func(r Record) bool { return r.Name == "TRIANGLE" }}},
	},
	// concurrent: no statement errors and no checksum mismatches against
	// the serial reference streams, checksums and statement counts as
	// committed, and throughput scaling from 1 to 8 sessions.
	"concurrent": {
		baseline: "BENCH_concurrent.json",
		pin:      "on",
		pinned:   []string{"checksum", "statements"},
		bounds: []bound{
			{"on", "errors", "==", 0},
			{"on", "mismatches", "==", 0},
		},
		ratios: []ratio{{what: "1->8 session scaling", field: "stmt_per_sec",
			num: onSide, den: operand{"on", "1-sessions/oracle"}, min: concurrentScaleX,
			only: func(r Record) bool { return r.Sessions == 8 }}},
	},
}

// BaselineFile names an A/B experiment's committed baseline.
func BaselineFile(name string) string { return gates[name].baseline }

// Gate checks a live run of an A/B experiment (every variant) against its
// committed baseline records. It returns the failures, empty when the gate
// passes, and a one-line summary of the measured ratios.
func Gate(name string, run, baseline []Record) (summary string, failures []string) {
	g, ok := gates[name]
	if !ok {
		return "", []string{fmt.Sprintf("no gate for experiment %q", name)}
	}
	sides := map[string]map[string]*Record{"base": {}}
	for _, v := range experiments[name].variants {
		sides[v.name] = map[string]*Record{}
	}
	for i := range run {
		if s, ok := sides[run[i].Variant]; ok {
			s[run[i].cellKey()] = &run[i]
		}
	}
	for i := range baseline {
		if baseline[i].Variant == g.pin {
			sides["base"][baseline[i].cellKey()] = &baseline[i]
		}
	}
	var keys, sideNames []string
	seen := map[string]bool{}
	for sn, s := range sides {
		sideNames = append(sideNames, sn)
		for k := range s {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	sort.Strings(sideNames)
	fail := func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }

	var complete []string
	for _, k := range keys {
		ok := true
		for _, sn := range sideNames {
			if sides[sn][k] == nil {
				fail("%s: missing from the %s records", k, sn)
				ok = false
			}
		}
		if ok {
			complete = append(complete, k)
		}
	}

	for _, k := range complete {
		for _, f := range g.agree {
			a, b := sides["on"][k].get(f).Interface(), sides["off"][k].get(f).Interface()
			if a != b {
				fail("%s: %s differs between on (%v) and off (%v)", k, f, a, b)
			}
		}
		for _, f := range g.pinned {
			a, b := sides[g.pin][k].get(f).Interface(), sides["base"][k].get(f).Interface()
			if a != b {
				fail("%s: %s drifted from baseline: %v != %v", k, f, a, b)
			}
		}
		for _, b := range g.bounds {
			if x := number(sides[b.variant][k].get(b.field)); !b.holds(x) {
				fail("%s: %s %s = %v, want %s %v", k, b.variant, b.field, x, b.op, b.val)
			}
		}
	}

	var notes []string
	for _, rt := range g.ratios {
		selected, passed := 0, 0
		var got []string
		for _, k := range complete {
			if rt.only != nil && !rt.only(*sides["on"][k]) {
				continue
			}
			read := func(o operand) (float64, bool) {
				ck := o.cell
				if ck == "" {
					ck = k
				}
				r := sides[o.variant][ck]
				if r == nil {
					return 0, false
				}
				return number(r.get(rt.field)), true
			}
			num, ok1 := read(rt.num)
			den, ok2 := read(rt.den)
			if !ok1 || !ok2 {
				fail("%s: %s: no record to compare against", k, rt.what)
				continue
			}
			selected++
			x := num / max(den, 1e-9)
			got = append(got, fmt.Sprintf("%s %.2fx", k, x))
			switch {
			case rt.min > 0 && num < den*rt.min:
				if rt.atLeast == 0 {
					fail("%s: %s %.2fx, want >= %.2fx", k, rt.what, x, rt.min)
				}
			case rt.max > 0 && num > den*rt.max:
				fail("%s: %s %.2fx, want <= %.2fx", k, rt.what, x, rt.max)
			default:
				passed++
			}
		}
		if rt.atLeast > 0 && passed < rt.atLeast {
			fail("%s: %d of %d cells reached %.2fx, want at least %d", rt.what, passed, selected, rt.min, rt.atLeast)
		}
		notes = append(notes, fmt.Sprintf("%s: %s", rt.what, strings.Join(got, ", ")))
	}
	summary = fmt.Sprintf("%d cells; %s", len(complete), strings.Join(notes, "; "))
	return summary, failures
}
