package exp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// committedRun returns an experiment's committed records as a gate run
// (both variants) plus its baseline. perf has no committed observer pair,
// so its observer-on records are synthesized from BENCH_after.json: spans
// reported, 10% slower than observer-off.
func committedRun(t *testing.T, name string) (run, base []Record) {
	t.Helper()
	base, err := LoadRecords("../../" + BaselineFile(name))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range base {
		run = append(run, r)
		if name == "perf" {
			r.Variant, r.Spans, r.Millis = "on", 100, r.Millis*1.1
			run = append(run, r)
		}
	}
	return run, base
}

// TestGateCommittedBaselines replays the gate over every committed
// baseline and on/off pair: the records that established each bound must
// pass it.
func TestGateCommittedBaselines(t *testing.T) {
	for _, name := range ABExperiments() {
		run, base := committedRun(t, name)
		summary, fails := Gate(name, run, base)
		if len(fails) > 0 {
			t.Errorf("%s: committed records fail the gate:\n%s", name, strings.Join(fails, "\n"))
		}
		if !strings.Contains(summary, fmt.Sprintf("%d cells", len(base)/len(experiments[name].variants))) && name != "perf" {
			t.Errorf("%s: summary %q", name, summary)
		}
		for _, r := range base {
			if r.Experiment != name {
				t.Errorf("%s: record %s labeled %q", name, r.cellKey(), r.Experiment)
			}
		}
	}
	before, err := LoadRecords("../../BENCH_before.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range before {
		if r.Experiment != "perf" || r.Variant != "off" || !r.NoFusion {
			t.Errorf("BENCH_before.json: %s is %s/%s nofusion=%v", r.cellKey(), r.Experiment, r.Variant, r.NoFusion)
		}
	}
}

// find returns the record of a cell and variant in recs.
func find(t *testing.T, recs []Record, cell, variant string) *Record {
	t.Helper()
	for i := range recs {
		if recs[i].cellKey() == cell && recs[i].Variant == variant {
			return &recs[i]
		}
	}
	t.Fatalf("no %s record for %s", variant, cell)
	return nil
}

// perturb changes a field's value: numbers by one, strings to a checksum
// no run produces.
func perturb(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString("0000000000000bad")
	}
}

// TestGateSpecMutations breaks each invariant of every gate spec in one
// committed record and requires the gate to fail with that invariant's
// message.
func TestGateSpecMutations(t *testing.T) {
	type mutation struct {
		desc, want string
		apply      func(run, base []Record)
	}
	for _, name := range ABExperiments() {
		g := gates[name]
		_, base0 := committedRun(t, name)
		cell := base0[0].cellKey()
		var ms []mutation
		for _, f := range g.agree {
			ms = append(ms, mutation{"agree " + f, f + " differs between on", func(run, _ []Record) {
				perturb(find(t, run, cell, "off").get(f))
			}})
		}
		for _, f := range g.pinned {
			ms = append(ms, mutation{"pinned " + f, f + " drifted from baseline", func(run, _ []Record) {
				perturb(find(t, run, cell, g.pin).get(f))
			}})
		}
		for _, b := range g.bounds {
			bad := map[string]float64{"<=": b.val + 1, "==": b.val + 1, ">": b.val}[b.op]
			ms = append(ms, mutation{"bound " + b.field, fmt.Sprintf("%s %s = ", b.variant, b.field), func(run, _ []Record) {
				v := find(t, run, cell, b.variant).get(b.field)
				if v.Kind() == reflect.Float64 {
					v.SetFloat(bad)
				} else {
					v.SetInt(int64(bad))
				}
			}})
		}
		for _, rt := range g.ratios {
			want := rt.what + " "
			if rt.atLeast > 0 {
				want = rt.what + ": "
			}
			// Push num/den just past the bound in every selected cell.
			ms = append(ms, mutation{"ratio " + rt.what, want, func(run, base []Record) {
				sides := map[string][]Record{"on": run, "off": run, "base": base}
				for i := range run {
					r := &run[i]
					if r.Variant != "on" || (rt.only != nil && !rt.only(*r)) {
						continue
					}
					at := func(o operand) *Record {
						ck := o.cell
						if ck == "" {
							ck = r.cellKey()
						}
						v := o.variant
						if v == "base" {
							v = g.pin
						}
						return find(t, sides[o.variant], ck, v)
					}
					den := number(at(rt.den).get(rt.field))
					x := den * rt.min * 0.9
					if rt.max > 0 {
						x = den * rt.max * 1.1
					}
					at(rt.num).get(rt.field).SetFloat(x)
				}
			}})
		}
		ms = append(ms, mutation{"missing cell", cell + ": missing from the", func(run, _ []Record) {
			find(t, run, cell, run[len(run)-1].Variant).Name = "gone"
		}})
		for _, m := range ms {
			run, base := committedRun(t, name)
			m.apply(run, base)
			_, fails := Gate(name, run, base)
			joined := strings.Join(fails, "\n")
			if !strings.Contains(joined, m.want) {
				t.Errorf("%s: %s: gate did not fail with %q; failures:\n%s", name, m.desc, m.want, joined)
			}
		}
	}
}

// TestGateNamedRegressions injects the regressions the gate exists to
// catch, one committed record at a time.
func TestGateNamedRegressions(t *testing.T) {
	cases := []struct {
		desc, exp, want string
		apply           func(run []Record)
	}{
		{"slow on-variant", "csr", "csr speedup: 1 of 8 cells", func(run []Record) {
			for _, cell := range []string{"BFS/oracle", "BFS/db2", "PR/oracle"} {
				find(t, run, cell, "on").Millis = find(t, run, cell, "off").Millis
			}
		}},
		{"slow delta cell", "delta", "REACH/db2: frontier speedup", func(run []Record) {
			find(t, run, "REACH/db2", "on").Millis *= 100
		}},
		{"checksum divergence", "vector", "FILTER/db2: checksum differs between on", func(run []Record) {
			find(t, run, "FILTER/db2", "off").Checksum = "ffffffffffffffff"
		}},
		{"non-zero off-path counter", "motif", "TRIANGLE/oracle: off wcoj_builds = 3, want == 0", func(run []Record) {
			find(t, run, "TRIANGLE/oracle", "off").WCOJBuilds = 3
		}},
		{"zero on-path counter", "vector", "AGG/oracle: on vectorized_batches = 0, want > 0", func(run []Record) {
			find(t, run, "AGG/oracle", "on").VectorizedBatches = 0
		}},
		{"pinned counter drift", "delta", "TC/postgres: tuples_materialized drifted from baseline", func(run []Record) {
			find(t, run, "TC/postgres", "on").TuplesMaterialized++
		}},
		{"missing cell", "csr", "PR/db2: missing from the off records", func(run []Record) {
			find(t, run, "PR/db2", "off").Variant = "skipped"
		}},
		{"concurrent errors", "concurrent", "4-sessions/oracle: on errors = 2, want == 0", func(run []Record) {
			find(t, run, "4-sessions/oracle", "on").Errors = 2
		}},
		{"concurrent mismatches", "concurrent", "8-sessions/oracle: on mismatches = 1, want == 0", func(run []Record) {
			find(t, run, "8-sessions/oracle", "on").Mismatches = 1
		}},
		{"1->8 scaling under 3x", "concurrent", "1->8 session scaling 2.50x, want >= 3.00x", func(run []Record) {
			r1 := find(t, run, "1-sessions/oracle", "on")
			find(t, run, "8-sessions/oracle", "on").PerSec = r1.PerSec * 2.5
		}},
		{"observer overhead", "perf", "PR/db2: observer overhead 2.00x, want <= 1.40x", func(run []Record) {
			find(t, run, "PR/db2", "on").Millis = find(t, run, "PR/db2", "off").Millis * 2
		}},
		{"observer reports no spans", "perf", "WCC/oracle: on spans = 0, want > 0", func(run []Record) {
			find(t, run, "WCC/oracle", "on").Spans = 0
		}},
	}
	for _, c := range cases {
		run, base := committedRun(t, c.exp)
		c.apply(run)
		_, fails := Gate(c.exp, run, base)
		if joined := strings.Join(fails, "\n"); !strings.Contains(joined, c.want) {
			t.Errorf("%s: gate did not fail with %q; failures:\n%s", c.desc, c.want, joined)
		}
	}
}
