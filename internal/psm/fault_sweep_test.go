// Chaos harness: drive a full WITH+ PageRank through the PSM loop driver
// while injecting a storage fault at every reachable operation index, and
// assert the failure contract at each one — no panic, a typed error, no
// temp-table debris, stable catalog invariants, and crash recovery restoring
// exactly the committed base tables.
//
// The tests live in package psm_test so they can exercise the compiled
// procedures through repro/internal/withplus (which imports psm).
package psm_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/algos"
	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/withplus"
)

// sweepGraph is a small deterministic digraph: a cycle with chords, so
// PageRank has real mass flow and every node has out-degree >= 1.
func sweepGraph(n int) *graph.Graph {
	g := graph.New(n, true)
	for i := 0; i < n; i++ {
		g.AddEdge(int32(i), int32((i+1)%n), 1)
		if i%3 == 0 {
			g.AddEdge(int32(i), int32((i+2)%n), 1)
		}
	}
	return g
}

// loadGraphTables loads the base tables the WITH+ algorithm texts expect:
// E(F,T,ew), En (out-degree normalized), and V(ID,vw).
func loadGraphTables(eng *engine.Engine, g *graph.Graph) error {
	if _, err := eng.LoadBase("E", g.EdgeRelation()); err != nil {
		return err
	}
	deg := g.OutDegrees()
	norm := graph.New(g.N, g.Directed)
	for _, e := range g.Edges {
		norm.AddEdge(e.F, e.T, 1/float64(deg[e.F]))
	}
	if _, err := eng.LoadBase("En", norm.EdgeRelation()); err != nil {
		return err
	}
	_, err := eng.LoadBase("V", g.NodeRelation(nil))
	return err
}

// runGoverned executes a WITH+ statement under a statement governor the way
// graphsql.DB.Query does: aborts become errors at this boundary.
func runGoverned(ctx context.Context, eng *engine.Engine, src string) (out *relation.Relation, err error) {
	defer govern.RecoverTo(&err)
	end := eng.BeginStatement(ctx)
	defer end()
	out, _, err = withplus.Run(eng, src)
	return out, err
}

// dumpTable renders a table's content in storage order, schema-independent,
// for exact before/after comparison across recovery.
func dumpTable(t *testing.T, eng *engine.Engine, name string) string {
	t.Helper()
	r, err := eng.Rel(name)
	if err != nil {
		t.Fatalf("materialize %s: %v", name, err)
	}
	var b strings.Builder
	for i := 0; i < r.Len(); i++ {
		b.WriteString(r.At(i).String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestFaultSweepPageRank is the fault-injection sweep of the issue: run
// PageRank once cleanly to learn the total operation count N, then re-run it
// N-ish times with a hard fault scripted at every operation index the query
// reaches. Every run must either succeed (the fault landed on an op the
// engine never reached — impossible here, but harmless) or fail with an
// error matching storage.ErrInjected; never panic, never leave temp tables,
// and always leave the committed base tables recoverable from the WAL.
func TestFaultSweepPageRank(t *testing.T) {
	const nodes = 12
	g := sweepGraph(nodes)
	query := algos.PageRankSQL(nodes, 3, 0.85)

	// Clean instrumented run: a zero FaultPlan counts operations without
	// injecting, giving the op-index range the sweep walks.
	eng := engine.New(engine.OracleLike())
	plan := &storage.FaultPlan{}
	eng.Cat.FaultPlan = plan
	if err := loadGraphTables(eng, g); err != nil {
		t.Fatal(err)
	}
	loadOps := plan.Ops()
	wantBase := map[string]string{}
	for _, name := range []string{"E", "En", "V"} {
		wantBase[name] = dumpTable(t, eng, name)
	}
	cleanOut, err := runGoverned(context.Background(), eng, query)
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	totalOps := plan.Ops()
	if totalOps <= loadOps {
		t.Fatalf("query consumed no storage ops (load %d, total %d)", loadOps, totalOps)
	}
	t.Logf("sweep range: ops %d..%d (%d injection points), clean result %d rows",
		loadOps+1, totalOps, totalOps-loadOps, cleanOut.Len())

	var failed, succeeded int
	for k := loadOps + 1; k <= totalOps; k++ {
		k := k
		t.Run(fmt.Sprintf("op%03d", k), func(t *testing.T) {
			eng := engine.New(engine.OracleLike())
			eng.Cat.FaultPlan = &storage.FaultPlan{FailAt: k}
			if err := loadGraphTables(eng, g); err != nil {
				t.Fatalf("load reached the injection index: %v", err)
			}
			_, err := runGoverned(context.Background(), eng, query)
			if err == nil {
				succeeded++
			} else {
				failed++
				if !errors.Is(err, storage.ErrInjected) {
					t.Fatalf("fault at op %d surfaced as a foreign error: %v", k, err)
				}
				var pe *govern.PanicError
				if errors.As(err, &pe) {
					t.Fatalf("fault at op %d escaped as a panic: %v", k, err)
				}
			}
			// Contract 1: no temp-table debris, whatever happened.
			if tn := eng.Cat.TempNames(); len(tn) != 0 {
				t.Fatalf("temp tables leaked after fault at op %d: %v", k, tn)
			}
			// Contract 2: the base tables are still cataloged.
			for name := range wantBase {
				if !eng.Cat.Has(name) {
					t.Fatalf("base table %s vanished after fault at op %d", name, k)
				}
			}
			// Contract 3: crash recovery rebuilds exactly the committed
			// base-table state (the graph load), discarding the failed
			// statement entirely.
			rep, rerr := eng.Recover()
			if rerr != nil {
				t.Fatalf("recover after fault at op %d: %v", k, rerr)
			}
			if rep.Corrupt != nil {
				t.Fatalf("recover reported corruption on an intact log: %v", rep.Corrupt)
			}
			for name, want := range wantBase {
				if got := dumpTable(t, eng, name); got != want {
					t.Fatalf("table %s diverged after recovery from fault at op %d:\ngot:\n%swant:\n%s",
						name, k, got, want)
				}
			}
		})
	}
	if failed == 0 {
		t.Fatalf("sweep injected no faults (%d succeeded) — the plan is not wired through", succeeded)
	}
	t.Logf("sweep done: %d faulted, %d unreached", failed, succeeded)
}

// TestTransientFaultsAbsorbedByRetry is the flaky-device end of the fault
// model: every 3rd storage operation fails transiently, the catalog's retry
// policy re-runs it, and the query comes out byte-identical to a clean run.
func TestTransientFaultsAbsorbedByRetry(t *testing.T) {
	const nodes = 12
	g := sweepGraph(nodes)
	query := algos.PageRankSQL(nodes, 3, 0.85)

	clean := engine.New(engine.OracleLike())
	if err := loadGraphTables(clean, g); err != nil {
		t.Fatal(err)
	}
	want, err := runGoverned(context.Background(), clean, query)
	if err != nil {
		t.Fatal(err)
	}

	eng := engine.New(engine.OracleLike())
	plan := &storage.FaultPlan{EveryNth: 3, Transient: true}
	eng.Cat.FaultPlan = plan
	eng.Cat.Retry = storage.RetryPolicy{Attempts: 3}
	if err := loadGraphTables(eng, g); err != nil {
		t.Fatalf("retry policy should absorb transient load faults: %v", err)
	}
	got, err := runGoverned(context.Background(), eng, query)
	if err != nil {
		t.Fatalf("retry policy should absorb transient query faults: %v", err)
	}
	if plan.Injected() == 0 {
		t.Fatal("no transient faults were injected — the test is vacuous")
	}
	if !got.Equal(want) {
		t.Fatalf("result diverged under transient faults: %d rows vs %d", got.Len(), want.Len())
	}
	t.Logf("absorbed %d transient faults over %d ops", plan.Injected(), plan.Ops())
}

// TestLoopCancellationAtBoundary: a cancelled context stops the PSM loop at
// a statement boundary with context.Canceled, and the procedure's temp
// tables are dropped on the way out.
func TestLoopCancellationAtBoundary(t *testing.T) {
	const nodes = 12
	g := sweepGraph(nodes)
	eng := engine.New(engine.OracleLike())
	if err := loadGraphTables(eng, g); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the procedure starts: first checkpoint trips
	_, err := runGoverned(ctx, eng, algos.PageRankSQL(nodes, 15, 0.85))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if tn := eng.Cat.TempNames(); len(tn) != 0 {
		t.Fatalf("temp tables leaked after cancellation: %v", tn)
	}
	// The engine remains usable for the next statement.
	if _, err := runGoverned(context.Background(), eng, algos.PageRankSQL(nodes, 2, 0.85)); err != nil {
		t.Fatalf("engine unusable after a cancelled statement: %v", err)
	}
}
