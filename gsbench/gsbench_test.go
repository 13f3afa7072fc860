package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/graphsql"
	"repro/internal/relation"
	"repro/internal/value"
)

const testN = 300

// The statement stream, and the graph under it, are a pure function of
// the seed: two independent constructions agree statement by statement,
// and another seed gives another stream.
func TestStreamIsPureFunctionOfSeed(t *testing.T) {
	for _, wl := range workloads {
		a := &stream{workload: wl, seed: 7, d: newDataset(testN, 7)}
		b := &stream{workload: wl, seed: 7, d: newDataset(testN, 7)}
		c := &stream{workload: wl, seed: 8, d: newDataset(testN, 8)}
		for i := 0; i < 200; i++ {
			if a.at(i) != b.at(i) {
				t.Fatalf("%s: statement %d differs between equal seeds:\n%+v\n%+v", wl, i, a.at(i), b.at(i))
			}
		}
		if a.checksum(200) != b.checksum(200) {
			t.Fatalf("%s: stream checksums differ between equal seeds", wl)
		}
		if a.checksum(200) == c.checksum(200) {
			t.Fatalf("%s: seeds 7 and 8 give the same stream", wl)
		}
	}
}

// A stream holds the statement kinds its workload promises.
func TestStreamMix(t *testing.T) {
	s := &stream{workload: "serve-mixed", seed: 3, d: newDataset(testN, 3)}
	kinds := map[string]int{}
	for i := 0; i < 4000; i++ {
		st := s.at(i)
		kinds[st.Kind]++
		if st.write() && st.Fresh != int32(testN+i) {
			t.Fatalf("insert %d targets %d, want the fresh id %d", i, st.Fresh, testN+i)
		}
	}
	for kind, share := range map[string]float64{"point": 0.6, "hop": 0.2, "rec": 0.1, "insert": 0.1} {
		if got := float64(kinds[kind]) / 4000; got < share-0.03 || got > share+0.03 {
			t.Errorf("%s share %.3f, want about %.2f", kind, got, share)
		}
	}
}

// Every closed-loop statement kind passes its check on the real answer,
// and the same answer with one value changed is caught.
func TestWrongAnswerIsCaught(t *testing.T) {
	ctx := context.Background()
	for _, wl := range []string{"analytics", "pattern"} {
		env, err := setupClosed(ctx, wl, testN, 5)
		if err != nil {
			t.Fatal(err)
		}
		st := &stream{workload: wl, seed: 5, d: env.d}
		chk := newChecker(env.d)
		for i := 0; i < st.cycleLen(); i++ {
			s := st.at(i)
			res, err := env.dbs[s.Profile].Query(ctx, s.SQL)
			if err != nil {
				t.Fatalf("%s %s: %v", wl, s.Kind, err)
			}
			if err := chk.check(s, res.Rows); err != nil {
				t.Fatalf("%s %s on %s: right answer rejected: %v", wl, s.Kind, s.Profile, err)
			}
			if res.Rows.Len() == 0 {
				continue
			}
			bad := res.Rows.Clone()
			row := append(relation.Tuple(nil), bad.Tuples[0]...)
			row[len(row)-1] = value.Int(-1) // no answer of any kind holds a negative value
			bad.Tuples[0] = row
			if err := chk.check(s, bad); err == nil {
				t.Fatalf("%s %s: wrong answer accepted", wl, s.Kind)
			}
		}
	}
}

// A closed loop whose program answers one statement wrong reports the
// failure, and its result line says the run is not correct.
func TestClosedLoopCountsWrongAnswers(t *testing.T) {
	ctx := context.Background()
	env, err := setupClosed(ctx, "pattern", testN, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport("pattern")
	loop := &closedLoop{st: &stream{workload: "pattern", seed: 2, d: env.d}, chk: newChecker(env.d), rep: rep,
		exec: func(s stmt) (*graphsql.Relation, error) {
			res, err := env.dbs[s.Profile].Query(ctx, s.SQL)
			if err != nil {
				return nil, err
			}
			if s.Index != 8 { // a reach, never empty
				return res.Rows, nil
			}
			return relation.New(res.Rows.Sch), nil // drop every row of statement 8
		}}
	loop.run(0.01)
	if rep.Failed != 1 {
		t.Fatalf("failed = %d, want 1", rep.Failed)
	}
	var out bytes.Buffer
	for _, d := range endToEnd {
		rep.Metrics[d.Name] = 1
	}
	if err := rep.print(&out, false); err != nil {
		t.Fatal(err)
	}
	var res result
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("result line %+v, want correct=false failed=1", res)
	}
}

// The serving check compares each wire answer with the serial replay,
// setting aside only rows of writes whose order against the read is
// unsettled.
func TestServeCompare(t *testing.T) {
	d := newDataset(testN, 1)
	l := &serveLoop{env: &serveEnv{d: d}, st: &stream{workload: "serve-mixed", seed: 1, d: d}}
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	w10 := &wireRun{st: stmt{Index: 10, Kind: "insert"}, sent: at(0), done: at(1)}
	w12 := &wireRun{st: stmt{Index: 12, Kind: "insert"}, sent: at(5), done: at(9)}
	read := &wireRun{st: stmt{Index: 11, Kind: "point"}, sent: at(4), done: at(6)}
	l.byIndex = make([]*wireRun, 13)
	l.byIndex[10], l.byIndex[11], l.byIndex[12] = w10, read, w12
	fresh10, fresh12 := "310\t1", "312\t1"

	want := digestOf([]string{"5\t1", fresh10}, testN)
	read.ans = digestOf([]string{"5\t1", fresh10, fresh12}, testN) // saw the overlapping write 12
	if err := l.compare(read, want); err != nil {
		t.Fatalf("overlapping write flagged: %v", err)
	}
	read.ans = digestOf([]string{"5\t1"}, testN) // missed write 10, settled before the read
	if err := l.compare(read, want); err == nil {
		t.Fatal("a missed settled write was accepted")
	}
	read.ans = digestOf([]string{"6\t1", fresh10}, testN) // a wrong base row
	if err := l.compare(read, want); err == nil {
		t.Fatal("a wrong row was accepted")
	}
}

// BENCHMARK.json records exactly the metrics the benchmark prints, with
// the same units, directions and bounds.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.EndToEnd) != len(endToEnd) || len(cfg.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the benchmark %d and %d",
			len(cfg.EndToEnd), len(cfg.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if cfg.EndToEnd[i] != d {
			t.Errorf("end_to_end[%d] = %+v, benchmark has %+v", i, cfg.EndToEnd[i], d)
		}
	}
	for i, d := range perLayer {
		if cfg.PerLayer[i] != d {
			t.Errorf("per_layer[%d] = %+v, benchmark has %+v", i, cfg.PerLayer[i], d)
		}
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("workloads %v, benchmark runs %v", names, workloads)
	}
}

// Every workload prints every metric named in its mode, by name with its
// unit, and a result line carrying each gated metric with its unit.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	ctx := context.Background()
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			var (
				rep *report
				err error
			)
			// Three seconds give the serving rounds the twenty light-load
			// reads a median needs.
			const seconds = 3
			switch {
			case traced:
				rep, err = runTraced(ctx, wl, testN, 1, seconds, t.TempDir())
			case wl == "serve-mixed":
				rep, err = runServeWorkload(ctx, testN, 1, seconds)
			default:
				rep, err = runClosedWorkload(ctx, wl, testN, 1, seconds)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if rep.Failed > 0 {
				t.Fatalf("%s traced=%v: %d wrong answers: %v", wl, traced, rep.Failed, rep.Notes)
			}
			var out bytes.Buffer
			if err := rep.print(&out, traced); err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			text := out.String()
			for _, d := range defs {
				re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(d.Name) + `\s+-?[0-9.]+ ` + regexp.QuoteMeta(d.Unit) + `\b`)
				if !re.MatchString(text) {
					t.Errorf("%s traced=%v: no line for %s in %s", wl, traced, d.Name, d.Unit)
				}
			}
			lines := strings.Split(strings.TrimSpace(text), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", wl, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: result %+v", wl, traced, res)
			}
			for _, d := range defs {
				if res.Metrics[d.Name].Unit != d.Unit {
					t.Errorf("%s traced=%v: %s unit %q, want %q", wl, traced, d.Name, res.Metrics[d.Name].Unit, d.Unit)
				}
			}
		}
	}
}

// quartiles agrees with Python's statistics.quantiles(range(1, 11), n=4),
// which gives [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// A percentile is reported only with ten samples beyond it.
func TestPercentileSupport(t *testing.T) {
	xs := make([]float64, 999)
	if _, ok := percentile(xs, 0.99); ok {
		t.Fatal("p99 of 999 samples leaves 9 beyond it and must not be reported")
	}
	if _, ok := percentile(append(xs, 0), 0.99); !ok {
		t.Fatal("p99 of 1000 samples leaves 10 beyond it and must be reported")
	}
}
