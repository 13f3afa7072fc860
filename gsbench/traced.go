package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/graphsql"
	"repro/graphsql/client"
	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/withplus"
)

// The traced run replays a workload's statements against benchmark-owned
// engines, armed the way graphsql.DB.Query arms its engine, and times each
// call into a module's entry points from outside the program: parse and
// lowering in internal/sql, WITH+ compilation and the PSM loop in
// internal/withplus, statement execution in the SQL executor. The engine's
// own operator spans arrive through an obs.Collector; they carry no parent
// id, so each is attached to the innermost span whose interval contains
// it. Counters (engine, WAL, buffer pool, disk) are diffed around every
// statement, and the wire layer is read from the server's metrics registry
// and the clients' stats.

// span is one recorded interval: a benchmark-side layer call, or an engine
// operator span attributed by time containment.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a statement's root span
	Stmt    int    `json:"stmt"`
	Name    string `json:"name"`
	Algo    string `json:"algo,omitempty"` // an operator's physical algorithm
	Start   int64  `json:"start_ns"`       // since the trace began
	End     int64  `json:"end_ns"`
	Rows    int64  `json:"rows,omitempty"`    // result rows of a layer call, output rows of an operator
	InRows  int64  `json:"in_rows,omitempty"` // operator input rows
	BuildNS int64  `json:"build_ns,omitempty"`
	ProbeNS int64  `json:"probe_ns,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"` // bytes an operator materialized
}

func (s *span) dur() int64 { return s.End - s.Start }

// layerTally accumulates one layer's calls and busy time.
type layerTally struct {
	calls int
	ns    int64
}

func (t *layerTally) meanUS() float64 { return ratio(float64(t.ns)/1e3, float64(t.calls)) }
func (t *layerTally) meanMS() float64 { return ratio(float64(t.ns)/1e6, float64(t.calls)) }

// tracer owns the spans of a traced replay and the per-layer tallies
// derived from them.
type tracer struct {
	base  time.Time
	spans []span
	cur   []span // the statement in flight

	stmts, stmtNS                int64
	layers                       map[string]*layerTally
	opNS                         map[string]int64 // top-level operator time by span name
	buildNS, probeNS, mergeNS    int64
	iterations, iterSelfNS       int64
	examined, execRows           int64
	wcojRows, bytesMaterialized  int64
	writes                       int64
	cnt                          engine.CountersSnapshot
	walRecs, walBytes, walCommit int64
	poolHits, poolMisses, reads  int64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), layers: map[string]*layerTally{}, opNS: map[string]int64{}}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.base).Nanoseconds() }

// layer times one call into a module and records it as a span of the
// statement in flight.
func layer[T any](t *tracer, stmtIdx int, name string, fn func() (T, error)) (T, error) {
	t0 := time.Now()
	v, err := fn()
	t1 := time.Now()
	t.cur = append(t.cur, span{Stmt: stmtIdx, Name: name, Start: t.ns(t0), End: t.ns(t1)})
	lt := t.layers[name]
	if lt == nil {
		lt = &layerTally{}
		t.layers[name] = lt
	}
	lt.calls++
	lt.ns += t1.Sub(t0).Nanoseconds()
	return v, err
}

// tracedEngine is one benchmark-owned engine per profile, loaded with the
// workload's tables.
type tracedEngine struct {
	t    *tracer
	engs map[string]*engine.Engine
}

func newTracedEngines(ctx context.Context, d *dataset, workload string, profiles []string) (*tracedEngine, error) {
	te := &tracedEngine{t: newTracer(), engs: map[string]*engine.Engine{}}
	for _, p := range profiles {
		var eng *engine.Engine
		switch p {
		case "oracle":
			eng = engine.New(engine.OracleLike())
		case "postgres":
			eng = engine.New(engine.PostgresLike(true))
		default:
			return nil, fmt.Errorf("no traced engine for profile %q", p)
		}
		for _, tb := range d.tables(workload) {
			if _, err := eng.LoadBase(tb.name, tb.rel); err != nil {
				return nil, fmt.Errorf("load %s: %w", tb.name, err)
			}
		}
		ddl, err := sql.ParseStatement(graphDDL)
		if err != nil {
			return nil, err
		}
		end := eng.BeginStatement(ctx)
		_, err = sql.NewExec(eng).ExecStatement(ddl)
		end()
		if err != nil {
			return nil, err
		}
		if workload == "serve-mixed" {
			// Statements run on a session engine, as on a server connection.
			eng = eng.NewSession("trace")
		}
		te.engs[p] = eng
	}
	return te, nil
}

// exec runs one statement through the module entry points, the same
// sequence graphsql.DB.Query follows, and folds its spans and counter
// deltas into the tallies.
func (te *tracedEngine) exec(ctx context.Context, st stmt) (rows *relation.Relation, err error) {
	t := te.t
	eng := te.engs[st.Profile]
	col := obs.NewCollector()
	cnt0 := eng.Cnt.Snapshot()
	recs0, bytes0, _, commits0 := eng.WAL().Counters()
	hits0, misses0, reads0 := eng.Cat.Pool.Hits, eng.Cat.Pool.Misses, eng.Disk().Reads
	t.cur = t.cur[:0]
	t0 := time.Now()
	func() {
		defer govern.RecoverTo(&err)
		end := eng.BeginObserved(ctx, col)
		defer end()
		rows, err = te.dispatch(eng, st)
	}()
	t1 := time.Now()
	root := span{Stmt: st.Index, Name: "statement " + st.Kind, Start: t.ns(t0), End: t.ns(t1)}
	if rows != nil {
		root.Rows = int64(rows.Len())
	}
	t.stmts++
	t.stmtNS += root.dur()
	if st.write() {
		t.writes++
	}
	cnt1 := eng.Cnt.Snapshot()
	recs1, bytes1, _, commits1 := eng.WAL().Counters()
	t.addCounters(cnt0, cnt1)
	t.walRecs += recs1 - recs0
	t.walBytes += bytes1 - bytes0
	t.walCommit += commits1 - commits0
	t.poolHits += eng.Cat.Pool.Hits - hits0
	t.poolMisses += eng.Cat.Pool.Misses - misses0
	t.reads += eng.Disk().Reads - reads0
	t.attribute(root, col.Spans())
	return rows, err
}

func (te *tracedEngine) dispatch(eng *engine.Engine, st stmt) (*relation.Relation, error) {
	t := te.t
	runWith := func(p *withplus.Program) (*relation.Relation, error) {
		defer p.Cleanup()
		return layer(t, st.Index, "withplus.run", func() (*relation.Relation, error) {
			out, _, err := p.Run()
			return out, err
		})
	}
	if isWith(st.SQL) {
		p, err := layer(t, st.Index, "withplus.prepare", func() (*withplus.Program, error) { return withplus.Prepare(eng, st.SQL) })
		if err != nil {
			return nil, err
		}
		return runWith(p)
	}
	s, err := layer(t, st.Index, "sql.parse", func() (sql.Statement, error) { return sql.ParseStatement(st.SQL) })
	if err != nil {
		return nil, err
	}
	s, err = layer(t, st.Index, "sql.lower", func() (sql.Statement, error) { return sql.ExpandStatement(eng, s) })
	if err != nil {
		return nil, err
	}
	if wq, ok := s.(*sql.WithQueryStmt); ok {
		p, err := layer(t, st.Index, "withplus.prepare", func() (*withplus.Program, error) { return withplus.PrepareStmt(eng, wq.With) })
		if err != nil {
			return nil, err
		}
		return runWith(p)
	}
	return layer(t, st.Index, "sql.exec", func() (*relation.Relation, error) { return sql.NewExec(eng).ExecStatement(s) })
}

// isWith mirrors graphsql's routing: a statement whose first word is WITH
// goes to the WITH+ compiler directly.
func isWith(text string) bool {
	f := strings.Fields(text)
	return len(f) > 0 && strings.EqualFold(f[0], "with")
}

func (t *tracer) addCounters(a, b engine.CountersSnapshot) {
	c := &t.cnt
	c.GroupBys += b.GroupBys - a.GroupBys
	c.TuplesMaterialized += b.TuplesMaterialized - a.TuplesMaterialized
	c.VectorizedBatches += b.VectorizedBatches - a.VectorizedBatches
	c.RowFallbacks += b.RowFallbacks - a.RowFallbacks
	c.WCOJProbes += b.WCOJProbes - a.WCOJProbes
	c.CSRBuilds += b.CSRBuilds - a.CSRBuilds
	c.CSRCacheHits += b.CSRCacheHits - a.CSRCacheHits
	c.IndexBuilds += b.IndexBuilds - a.IndexBuilds
	c.IndexCacheHits += b.IndexCacheHits - a.IndexCacheHits
}

// attribute links the statement's layer spans and the engine's operator
// spans into one tree by time containment, records them, and folds the
// operator times into the tallies.
func (t *tracer) attribute(root span, ops []obs.Span) {
	all := append([]span{root}, t.cur...)
	for _, op := range ops {
		name := "engine." + op.Op
		if op.Algo == "wcoj" {
			name = "engine.wcoj"
		}
		all = append(all, span{Stmt: root.Stmt, Name: name, Algo: op.Algo,
			Start: t.ns(op.Start), End: t.ns(op.Start.Add(op.Dur)),
			Rows: op.OutRows, InRows: op.LeftRows + op.RightRows,
			BuildNS: op.BuildDur.Nanoseconds(), ProbeNS: op.ProbeDur.Nanoseconds(),
			Bytes: op.BytesMaterialized})
	}
	// Outer spans first: earlier start, then later end; the statement root
	// and the benchmark's layer calls win ties over the engine spans they
	// wrap.
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Start != all[j].Start {
			return all[i].Start < all[j].Start
		}
		return all[i].End > all[j].End
	})
	first := len(t.spans) + 1
	var stack []int // indices into all
	childNS := make([]int64, len(all))
	for i := range all {
		all[i].ID = first + i
		for len(stack) > 0 {
			top := all[stack[len(stack)-1]]
			if top.Start <= all[i].Start && all[i].End <= top.End {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			all[i].Parent = all[p].ID
			childNS[p] += all[i].dur()
		}
		stack = append(stack, i)
	}
	byID := func(id int) *span { return &all[id-first] }
	for i := range all {
		s := &all[i]
		if !strings.HasPrefix(s.Name, "engine.") {
			continue
		}
		if s.Name == "engine.iteration" {
			t.iterations++
			t.iterSelfNS += s.dur() - childNS[i]
			continue
		}
		if s.Name == "engine.wcoj" {
			t.wcojRows += s.Rows
		}
		t.bytesMaterialized += s.Bytes
		// Count an operator's time once, at its outermost span of that kind,
		// and charge join rows examined to the SQL executor's calls.
		nested, underExec := false, false
		for p := s.Parent; p != 0; p = byID(p).Parent {
			if byID(p).Name == s.Name {
				nested = true
			}
			if byID(p).Name == "sql.exec" {
				underExec = true
			}
		}
		if underExec && (s.Name == "engine.join" || s.Name == "engine.wcoj") {
			t.examined += s.InRows + s.Rows
		}
		if nested {
			continue
		}
		t.opNS[s.Name] += s.dur()
		if s.Algo == "index-merge" || s.Algo == "sort-merge" {
			t.mergeNS += s.dur()
		}
		if s.Name == "engine.join" {
			t.buildNS += s.BuildNS
			t.probeNS += s.ProbeNS
		}
	}
	for _, c := range t.cur {
		if c.Name == "sql.exec" {
			t.execRows += root.Rows
		}
	}
	t.spans = append(t.spans, all...)
}

// set writes the engine-side per-layer metrics.
func (t *tracer) set(r *report) {
	ops := float64(max(t.stmts, 1))
	total := float64(t.stmtNS)
	lt := func(name string) *layerTally {
		if l := t.layers[name]; l != nil {
			return l
		}
		return &layerTally{}
	}
	r.Metrics["sql.parse_us"] = lt("sql.parse").meanUS()
	r.Metrics["sql.lower_us"] = lt("sql.lower").meanUS()
	r.Metrics["sql.exec_ms"] = lt("sql.exec").meanMS()
	r.Metrics["sql.rows_examined_per_row"] = ratio(float64(t.examined), float64(t.execRows))
	r.Metrics["withplus.prepare_us"] = lt("withplus.prepare").meanUS()
	r.Metrics["withplus.run_ms"] = lt("withplus.run").meanMS()
	r.Metrics["psm.iterations"] = ratio(float64(t.iterations), float64(lt("withplus.run").calls))
	r.Metrics["psm.iteration_self_ms"] = ratio(float64(t.iterSelfNS)/1e6, float64(t.iterations))
	r.Metrics["engine.join_share"] = ratio(float64(t.opNS["engine.join"]+t.opNS["engine.wcoj"]), total)
	r.Metrics["engine.merge_join_share"] = ratio(float64(t.mergeNS), total)
	r.Metrics["engine.ubu_share"] = ratio(float64(t.opNS["engine.union-by-update"]), total)
	r.Metrics["engine.join_build_share"] = ratio(float64(t.buildNS), total)
	r.Metrics["engine.join_probe_share"] = ratio(float64(t.probeNS), total)
	r.Metrics["engine.group_bys_per_op"] = float64(t.cnt.GroupBys) / ops
	r.Metrics["engine.tuples_materialized_per_op"] = float64(t.cnt.TuplesMaterialized) / ops
	r.Metrics["engine.bytes_materialized_per_op"] = float64(t.bytesMaterialized) / ops
	r.Metrics["ra.vector_batches_per_op"] = float64(t.cnt.VectorizedBatches) / ops
	r.Metrics["ra.row_fallback_ratio"] = ratio(float64(t.cnt.RowFallbacks), float64(t.cnt.VectorizedBatches))
	r.Metrics["ra.wcoj_probes_per_op"] = float64(t.cnt.WCOJProbes) / ops
	r.Metrics["ra.wcoj_yield"] = ratio(float64(t.wcojRows), float64(t.cnt.WCOJProbes))
	r.Metrics["catalog.csr_builds_per_kop"] = float64(t.cnt.CSRBuilds) * 1000 / ops
	r.Metrics["catalog.csr_hit_ratio"] = ratio(float64(t.cnt.CSRCacheHits), float64(t.cnt.CSRCacheHits+t.cnt.CSRBuilds))
	r.Metrics["catalog.index_builds_per_kop"] = float64(t.cnt.IndexBuilds) * 1000 / ops
	r.Metrics["catalog.index_hit_ratio"] = ratio(float64(t.cnt.IndexCacheHits), float64(t.cnt.IndexCacheHits+t.cnt.IndexBuilds))
	r.Metrics["storage.wal_bytes_per_op"] = float64(t.walBytes) / ops
	r.Metrics["storage.wal_records_per_op"] = float64(t.walRecs) / ops
	r.Metrics["storage.commits_per_op"] = float64(t.walCommit) / ops
	r.Metrics["storage.page_reads_per_op"] = float64(t.reads) / ops
	r.Metrics["storage.pool_hit_ratio"] = ratio(float64(t.poolHits), float64(t.poolHits+t.poolMisses))
	r.note("traced %d statements (%d writes), %d spans; layer calls: %s", t.stmts, t.writes, len(t.spans), t.layerSummary())
}

func (t *tracer) layerSummary() string {
	var names []string
	for n := range t.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	var parts []string
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", n, t.layers[n].calls))
	}
	return strings.Join(parts, " ")
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// registry reads the process-wide metrics through graphsql.MetricsJSON.
func registry() (obs.RegistrySnapshot, error) {
	var s obs.RegistrySnapshot
	b, err := graphsql.MetricsJSON()
	if err != nil {
		return s, err
	}
	err = json.Unmarshal(b, &s)
	return s, err
}

// wireProbe measures the client/server layer: ping round trips, and a
// serial replay where each request's server execution time is the
// registry's exec_us delta, so RTT minus it is the wire's share.
type wireProbe struct {
	pingUS, wireUS []float64
}

func (p *wireProbe) ping(ctx context.Context, cl *client.Client, n int) error {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := cl.Ping(ctx); err != nil {
			return err
		}
		p.pingUS = append(p.pingUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return nil
}

func (p *wireProbe) serial(ctx context.Context, cl *client.Client, sts []stmt) error {
	for _, s := range sts {
		before, err := registry()
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := send(ctx, cl, s); err != nil {
			return fmt.Errorf("wire replay of statement %d: %w", s.Index, err)
		}
		rtt := float64(time.Since(t0).Nanoseconds()) / 1e3
		after, err := registry()
		if err != nil {
			return err
		}
		exec := after.Histograms["server.exec_us"].Sum - before.Histograms["server.exec_us"].Sum
		p.wireUS = append(p.wireUS, rtt-float64(exec))
	}
	return nil
}

// setWire writes the client/server and governor metrics from the registry
// deltas over the traced run and the clients' stats.
func setWire(r *report, p *wireProbe, before, after obs.RegistrySnapshot, clients []*client.Client) {
	r.Metrics["server.ping_rtt_us"] = median(p.pingUS)
	r.Metrics["server.wire_us_p50"] = median(p.wireUS)
	wait := after.Histograms["server.queue_wait_us"].Sum - before.Histograms["server.queue_wait_us"].Sum
	exec := after.Histograms["server.exec_us"].Sum - before.Histograms["server.exec_us"].Sum
	r.Metrics["server.queue_wait_share"] = ratio(float64(wait), float64(wait+exec))
	r.Metrics["server.shed"] = float64(after.Counters["server.shed"] - before.Counters["server.shed"])
	var retries int64
	for _, cl := range clients {
		retries += cl.Stats().Retries
	}
	r.Metrics["client.retries"] = float64(retries)
	r.Metrics["govern.budget_trips"] = float64(after.Counters["govern.budget_trips"] - before.Counters["govern.budget_trips"])
	r.Metrics["govern.timeouts"] = float64(after.Counters["govern.timeouts"] - before.Counters["govern.timeouts"])
	r.note("wire: %d pings, %d serial requests", len(p.pingUS), len(p.wireUS))
}

// runTraced is the --trace 1 run: the untraced path first (its answers
// checked as in an untraced run), then the same statements through the
// traced engines, whose answer checksums must equal the untraced ones.
func runTraced(ctx context.Context, workload string, n int, seed int64, seconds float64, spansDir string) (*report, error) {
	rep := newReport(workload)
	before, err := registry()
	if err != nil {
		return nil, err
	}
	var (
		sts      []stmt
		want     []uint64 // untraced answer hash per statement of sts
		untraced float64  // untraced statements per busy second
		clients  []*client.Client
		probe    wireProbe
		d        *dataset
		profiles = []string{"oracle"}
	)
	if workload == "serve-mixed" {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(serveProcs))
		env, err := setupServe(ctx, n, seed)
		if err != nil {
			return nil, err
		}
		defer env.close()
		d, clients = env.d, env.clients
		st := &stream{workload: workload, seed: seed, d: d}
		loop := &serveLoop{env: env, st: st}
		loop.warmup(ctx)
		ss := loop.openStep(ctx, refRate, planFor(seconds).ref/2)
		lag, _ := percentile(ss.lagMS, 0.99)
		rep.Metrics["bench.generator_lag_ms_p99"] = lag
		rep.Metrics["bench.backlog_max"] = float64(ss.backlogMax)
		rep.Attempted = len(loop.all)
		if _, err := loop.verify(ctx, rep); err != nil {
			return nil, err
		}
		if err := probe.ping(ctx, clients[0], 200); err != nil {
			return nil, err
		}
		// The serial wire replay sends the 200 statements that follow the
		// checked ones: they write too, so they stay out of the check.
		var serial []stmt
		for i := 0; i < 200; i++ {
			serial = append(serial, st.at(loop.next+i))
		}
		if err := probe.serial(ctx, clients[0], serial); err != nil {
			return nil, err
		}
		for i := 0; i < loop.next; i++ {
			sts = append(sts, st.at(i))
		}
		want = loop.replayHash
		untraced = float64(loop.next) / loop.replayBusy.Seconds()
	} else {
		env, err := setupClosed(ctx, workload, n, seed)
		if err != nil {
			return nil, err
		}
		d = env.d
		if workload == "analytics" {
			profiles = analyticsProfs
		}
		loop := env.loop(ctx, workload, seed, rep)
		st := loop.st
		loop.run(seconds / 2)
		var gaps []float64
		var busy time.Duration
		for i, r := range loop.runs {
			sts = append(sts, r.st)
			want = append(want, r.hash)
			busy += r.lat
			if i > 0 {
				gaps = append(gaps, ms(r.gap))
			}
		}
		untraced = float64(len(loop.runs)) / busy.Seconds()
		lag, _ := percentile(gaps, 0.99)
		rep.Metrics["bench.generator_lag_ms_p99"] = lag
		rep.Metrics["bench.backlog_max"] = 0
		srv, err := startServer(ctx, d, workload, seed, 1)
		if err != nil {
			return nil, err
		}
		defer srv.close()
		clients = srv.clients
		if err := probe.ping(ctx, clients[0], 200); err != nil {
			return nil, err
		}
		var cycle []stmt
		for i := 0; i < st.cycleLen(); i++ {
			if s := st.at(i); s.Profile == "oracle" {
				cycle = append(cycle, s)
			}
		}
		if err := probe.serial(ctx, clients[0], cycle); err != nil {
			return nil, err
		}
	}

	te, err := newTracedEngines(ctx, d, workload, profiles)
	if err != nil {
		return nil, err
	}
	mismatch := 0
	for i, s := range sts {
		if workload != "serve-mixed" {
			runtime.GC() // as the untraced closed loop does
		}
		rows, err := te.exec(ctx, s)
		if err != nil {
			rep.fail("traced stmt %d (%s): %v", s.Index, s.Kind, err)
			continue
		}
		if s.write() {
			continue
		}
		if h := linesHash(renderSorted(rows)); h != want[i] {
			mismatch++
			rep.fail("traced stmt %d (%s): answer checksum differs from the untraced run", s.Index, s.Kind)
		}
	}
	rep.note("traced replay of %d statements: %d answer checksums differ from the untraced run", len(sts), mismatch)
	te.t.set(rep)
	traced := float64(te.t.stmts) / (float64(te.t.stmtNS) / 1e9)
	rep.Metrics["bench.trace_overhead"] = ratio(traced, untraced)
	after, err := registry()
	if err != nil {
		return nil, err
	}
	setWire(rep, &probe, before, after, clients)
	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err := te.t.write(path); err != nil {
		return nil, err
	}
	rep.note("spans written to %s", path)
	return rep, nil
}
