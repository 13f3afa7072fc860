package exp

import (
	"strings"
	"testing"
)

// TestDeltaRecordsShape runs the delta experiment at the minimum benchmark
// scale and checks the acceptance-shaped invariants: every on-variant cell
// runs with the rewrite enabled, reaches a non-trivial fixpoint, and
// performs zero build-side index rebuilds during the accumulation
// iterations (at most the single initial build); the off variant reaches
// the same fixpoint.
func TestDeltaRecordsShape(t *testing.T) {
	recs, err := Run("delta", Config{Nodes: 600, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 2 workloads x 3 profiles x 2 variants.
	if len(recs) != 12 {
		t.Fatalf("got %d records, want 12", len(recs))
	}
	for i := 0; i < len(recs); i += 2 {
		r, off := recs[i], recs[i+1]
		if r.Variant != "on" || off.Variant != "off" || r.cellKey() != off.cellKey() {
			t.Fatalf("records %d,%d: want the on/off pair of one cell, got %s/%s %s/%s",
				i, i+1, r.cellKey(), r.Variant, off.cellKey(), off.Variant)
		}
		if r.Nodes < 600 {
			t.Errorf("%s: scale %d under the n>=600 floor", r.cellKey(), r.Nodes)
		}
		if r.Iterations == 0 || r.RowsFinal == 0 || r.DeltaRowsTotal == 0 {
			t.Errorf("%s: degenerate run %+v", r.cellKey(), r)
		}
		if r.IndexBuilds > 1 {
			t.Errorf("%s: %d index builds, want <= 1 (zero rebuilds during accumulation)",
				r.cellKey(), r.IndexBuilds)
		}
		if off.RowsFinal != r.RowsFinal || off.Iterations != r.Iterations {
			t.Errorf("%s: off reached %d rows in %d iterations, on %d in %d",
				r.cellKey(), off.RowsFinal, off.Iterations, r.RowsFinal, r.Iterations)
		}
	}
	js, err := RecordsJSON(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js, `"experiment": "delta"`) || !strings.Contains(js, `"delta_rows_total"`) {
		t.Errorf("JSON missing delta fields:\n%s", js[:200])
	}
}
