package exp

import (
	"strings"
	"testing"
)

// TestPerfRecordsObserveAB checks the observability A/B contract: the
// observer-on variant reports the spans its counting sink saw, while the
// observer-off variant's JSON omits the spans field entirely, keeping it
// byte-compatible with the committed BENCH_after.json.
func TestPerfRecordsObserveAB(t *testing.T) {
	recs, err := Run("perf", Config{Nodes: 120, Seed: 1, Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	var off, on []Record
	for _, r := range recs {
		switch r.Variant {
		case "off":
			off = append(off, r)
		case "on":
			on = append(on, r)
		default:
			t.Errorf("%s: unexpected variant %q", r.cellKey(), r.Variant)
		}
	}
	if len(on) != len(off) || len(on) == 0 {
		t.Fatalf("record counts differ: %d on vs %d off", len(on), len(off))
	}
	offJSON, err := RecordsJSON(off)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(offJSON, "spans") {
		t.Errorf("unobserved JSON leaked observer fields:\n%s", offJSON)
	}
	for i, r := range on {
		if r.Spans <= 0 {
			t.Errorf("%s: observed run saw no spans", r.cellKey())
		}
		if r.cellKey() != off[i].cellKey() {
			t.Errorf("variants of a cell not adjacent: %s vs %s", r.cellKey(), off[i].cellKey())
		}
	}
	onJSON, err := RecordsJSON(on)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(onJSON, `"variant": "on"`) || !strings.Contains(onJSON, `"spans"`) {
		t.Errorf("observed JSON missing marker:\n%s", onJSON)
	}
}
