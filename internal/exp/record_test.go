package exp

import (
	"strings"
	"testing"
)

// TestABTable checks the one renderer: a column appears only when
// some record fills it, and records keep their order (variants of a cell
// adjacent).
func TestABTable(t *testing.T) {
	recs, err := LoadRecords("../../BENCH_csr.json")
	if err != nil {
		t.Fatal(err)
	}
	tab := ABTable("csr", recs)
	header := strings.Join(tab.Header, " ")
	for _, want := range []string{"name", "profile", "variant", "ms", "checksum", "csr_builds", "index_cache_hits"} {
		if !strings.Contains(header, want) {
			t.Errorf("header %q lacks %s", header, want)
		}
	}
	for _, absent := range []string{"experiment", "wcoj_probes", "sessions", "stmt_per_sec"} {
		if strings.Contains(header, absent) {
			t.Errorf("header %q has the empty column %s", header, absent)
		}
	}
	if len(tab.Rows) != len(recs) {
		t.Fatalf("%d rows for %d records", len(tab.Rows), len(recs))
	}
	if got := tab.Rows[0][:3]; strings.Join(got, "/") != "REACH/oracle/on" || strings.Join(tab.Rows[1][:3], "/") != "REACH/oracle/off" {
		t.Errorf("first rows %v, %v: want the REACH/oracle on/off pair", tab.Rows[0], tab.Rows[1])
	}
	if !strings.HasPrefix(tab.String(), "== CSR: adjacency access path") {
		t.Errorf("title missing:\n%s", tab.String())
	}
}
