package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"

	"repro/internal/engine"
)

// Record is one machine-readable measurement of an A/B experiment (perf,
// delta, csr, vector, motif, concurrent): one workload on one profile
// under one variant. cmd/bench -exp <name> -json emits them, the committed
// BENCH_*.json baselines hold them, and cmd/bench -gate compares them.
//
// Fields an experiment does not measure stay zero and are omitted from
// JSON. The embedded counters use the session counter vocabulary
// (engine.CountersSnapshot) and come from the first repetition, where they
// are deterministic; ns_op and ms are the minimum over the repetitions.
// Concurrent cells run on their own pool sessions and report no counters.
type Record struct {
	Experiment string `json:"experiment"`
	Name       string `json:"name"`
	Profile    string `json:"profile"`
	// Variant is "on" or "off": whether the mechanism the experiment is
	// named after ran (for perf, whether a span sink was attached).
	Variant  string `json:"variant"`
	Dataset  string `json:"dataset,omitempty"`
	Workers  int    `json:"workers,omitempty"`
	NoFusion bool   `json:"nofusion,omitempty"`
	Nodes    int    `json:"nodes,omitempty"`
	Edges    int    `json:"edges,omitempty"`

	Iterations int `json:"iterations,omitempty"`
	// Queries is the number of executions timed per repetition; ns_op is
	// per execution, ms the whole repetition.
	Queries int     `json:"queries,omitempty"`
	NsOp    int64   `json:"ns_op,omitempty"`
	Millis  float64 `json:"ms"`

	RowsFinal      int    `json:"rows_final,omitempty"`
	Count          int64  `json:"count,omitempty"`
	Checksum       string `json:"checksum,omitempty"`
	DeltaRowsTotal int64  `json:"delta_rows_total,omitempty"`
	Spans          int64  `json:"spans,omitempty"`

	Sessions   int     `json:"sessions,omitempty"`
	PerSession int     `json:"statements_per_session,omitempty"`
	Statements int     `json:"statements,omitempty"`
	Errors     int     `json:"errors,omitempty"`
	Mismatches int     `json:"mismatches,omitempty"`
	PerSec     float64 `json:"stmt_per_sec,omitempty"`

	engine.CountersSnapshot
}

// cellKey identifies a record's cell across variants and files.
func (r Record) cellKey() string { return r.Name + "/" + r.Profile }

// field is one JSON-named value of a record.
type field struct {
	key string
	val reflect.Value
}

// fields lists a record's values under their JSON keys, in declaration
// order with the embedded counters last: the one field vocabulary the
// gate specs, the table renderer, and the tests address.
func (r *Record) fields() []field {
	var out []field
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).Anonymous {
				walk(v.Field(i))
				continue
			}
			key, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
			out = append(out, field{key, v.Field(i)})
		}
	}
	walk(reflect.ValueOf(r).Elem())
	return out
}

// get returns the value stored under a JSON key; it panics on an unknown
// key, which only a malformed gate spec can name.
func (r *Record) get(key string) reflect.Value {
	for _, f := range r.fields() {
		if f.key == key {
			return f.val
		}
	}
	panic(fmt.Sprintf("exp: record has no field %q", key))
}

// number reads a numeric field as float64 (ratios and bounds).
func number(v reflect.Value) float64 {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		return float64(v.Int())
	case reflect.Float64:
		return v.Float()
	}
	panic(fmt.Sprintf("exp: field of kind %s is not numeric", v.Kind()))
}

// RecordsJSON renders records as indented JSON (the -json output format
// and the committed baseline format).
func RecordsJSON(recs []Record) (string, error) {
	b, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// LoadRecords reads a committed baseline file.
func LoadRecords(path string) ([]Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// ABTable renders an A/B experiment's records under its title, one row
// each, so variants of a cell stay on adjacent rows. Besides name,
// profile, variant, and ms, a column appears when some record has a
// non-zero value in it, headed by its JSON key.
func ABTable(name string, recs []Record) *Table {
	t := &Table{Title: experiments[name].title}
	vals := make([][]field, len(recs))
	for i := range recs {
		vals[i] = recs[i].fields()
	}
	always := map[string]bool{"name": true, "profile": true, "variant": true, "ms": true}
	var cols []int
	if len(recs) > 0 {
		for j, f := range vals[0] {
			for i := range vals {
				if f.key != "experiment" && (always[f.key] || !vals[i][j].val.IsZero()) {
					cols = append(cols, j)
					t.Header = append(t.Header, f.key)
					break
				}
			}
		}
	}
	for i := range vals {
		row := make([]string, len(cols))
		for c, j := range cols {
			if v := vals[i][j].val; v.Kind() == reflect.Float64 {
				row[c] = fmt.Sprintf("%.1f", v.Float())
			} else {
				row[c] = fmt.Sprint(v.Interface())
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
