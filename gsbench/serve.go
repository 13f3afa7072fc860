package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/graphsql"
	"repro/graphsql/client"
	"repro/internal/server"
)

// Serving settings. The server runs with cmd/gsqld's defaults. Server,
// client and load generator share one process on one P with one
// connection: on the two-vCPU reference VM, goroutine hand-offs between
// vCPUs made whole runs bimodal (about 230 against 140 statements/s in the
// closed loop) while one P holds its run-to-run spread near 10%.
const (
	serveProcs    = 1
	sloRead       = 100 * time.Millisecond // p99 limit on reads, timed from when each was due
	warmupServe   = 100                    // closed-loop statements before any timing
	clientTimeout = 5 * time.Second        // cmd/loadgen's per-request deadline
)

// rateLadder is the fixed ladder of offered rates (statements/s). refRate
// is the reference step: it runs refCount statements, enough that more
// than ten reads lie beyond the read p99.
var (
	rateLadder = []float64{50, 75, 100, 150}
	refRate    = 100.0
)

const refCount = 1200

// serveEnv is the serve-mixed set-up: the data in a shared pool behind an
// in-process server on loopback, and the client connections.
type serveEnv struct {
	d        *dataset
	srv      *server.Server
	serveErr chan error
	clients  []*client.Client
}

func setupServe(ctx context.Context, n int, seed int64) (*serveEnv, error) {
	return startServer(ctx, newDataset(n, seed), "serve-mixed", seed, serveProcs)
}

// startServer loads the workload's tables into a shared oracle-profile pool,
// serves it on a loopback port and dials conns clients.
func startServer(ctx context.Context, d *dataset, workload string, seed int64, conns int) (*serveEnv, error) {
	env := &serveEnv{d: d, serveErr: make(chan error, 1)}
	pool, err := graphsql.OpenPool("oracle")
	if err != nil {
		return nil, err
	}
	if err := env.d.loadDB(ctx, pool.DB(), workload); err != nil {
		return nil, err
	}
	env.srv = server.New(pool, env.d.g)
	env.srv.WriteTimeout = 10 * time.Second
	env.srv.MaxDeadline = 30 * time.Second
	env.srv.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	env.srv.MaxQueue = 4 * env.srv.MaxInflight
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { env.serveErr <- env.srv.Serve(ln) }()
	for c := 0; c < conns; c++ {
		cl, err := client.Dial(client.Config{Addr: ln.Addr().String(), RequestTimeout: clientTimeout, Seed: seed + int64(c)})
		if err != nil {
			env.close()
			return nil, err
		}
		env.clients = append(env.clients, cl)
		if err := cl.Ping(ctx); err != nil {
			env.close()
			return nil, err
		}
	}
	return env, nil
}

// close disconnects the clients, drains the server and waits for Serve to
// return.
func (e *serveEnv) close() {
	for _, cl := range e.clients {
		cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		e.srv.Close()
	}
	<-e.serveErr
}

// send runs one statement over a connection and returns the answer lines.
// The protocol carries one request per line, so the text's line breaks
// become spaces.
func send(ctx context.Context, cl *client.Client, s stmt) ([]string, error) {
	if s.Kind == "hop" {
		return cl.Match(ctx, "pg", s.Pattern)
	}
	return cl.Query(ctx, strings.Join(strings.Fields(s.SQL), " "), !s.write())
}

// digest is a compact, order-independent form of one answer: the hash of
// its rows that name no inserted node, plus the rows that do, so the check
// can set aside rows of writes that were in flight beside the read.
type digest struct {
	base  uint64
	fresh []string
}

func digestOf(lines []string, n int) digest {
	var d digest
	kept := lines[:0:0]
	for _, l := range lines {
		if namesFresh(l, n) {
			d.fresh = append(d.fresh, l)
		} else {
			kept = append(kept, l)
		}
	}
	sort.Strings(kept)
	d.base = linesHash(kept)
	sort.Strings(d.fresh)
	return d
}

// namesFresh reports whether a row names an inserted node (id >= n).
func namesFresh(line string, n int) bool {
	for _, f := range strings.Split(line, "\t") {
		if v, err := strconv.Atoi(f); err == nil && v >= n {
			return true
		}
	}
	return false
}

// wireRun is one statement sent over the wire.
type wireRun struct {
	st              stmt
	due, sent, done time.Time
	err             error
	ans             digest
}

func (w *wireRun) lat() time.Duration { return w.done.Sub(w.due) }

// stepStats summarises one open-loop step.
type stepStats struct {
	runs       []*wireRun
	lagMS      []float64 // generator lateness per request
	backlogMax int
	backlogEnd int
}

// serveLoop drives the open and closed loops of serve-mixed.
type serveLoop struct {
	env     *serveEnv
	st      *stream
	next    int // next stream index
	all     []*wireRun
	byIndex []*wireRun // all by stream index, built by verify

	// Set by verify: each statement's full answer hash from the serial
	// replay (0 for writes) and the replay's busy time.
	replayHash []uint64
	replayBusy time.Duration
}

// openStep offers the stream at rate for dur: a generator emits each
// request when due, and one worker per connection sends them in order.
// Latency counts from when a request was due, so a stall charges every
// request queued behind it.
func (l *serveLoop) openStep(ctx context.Context, rate float64, dur time.Duration) *stepStats {
	count := int(rate * dur.Seconds())
	ss := &stepStats{runs: make([]*wireRun, count), lagMS: make([]float64, count)}
	// Sized to the number of sends, so the generator never blocks and its
	// lateness measures only its own scheduling.
	queue := make(chan int, count)
	base := l.next
	for k := range ss.runs {
		ss.runs[k] = &wireRun{st: l.st.at(base + k)}
	}
	l.next += count
	var wg sync.WaitGroup
	for _, cl := range l.env.clients {
		wg.Add(1)
		go func(cl *client.Client) {
			defer wg.Done()
			for k := range queue {
				l.exec(ctx, cl, ss.runs[k])
			}
		}(cl)
	}
	start := time.Now()
	for k := 0; k < count; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		ss.runs[k].due = due
		ss.lagMS[k] = ms(time.Since(due))
		queue <- k
		ss.backlogMax = max(ss.backlogMax, len(queue))
	}
	ss.backlogEnd = len(queue)
	close(queue)
	wg.Wait()
	l.all = append(l.all, ss.runs...)
	return ss
}

func (l *serveLoop) exec(ctx context.Context, cl *client.Client, w *wireRun) {
	w.sent = time.Now()
	lines, err := send(ctx, cl, w.st)
	w.done = time.Now()
	w.err = err
	if err == nil && !w.st.write() {
		w.ans = digestOf(lines, l.env.d.n)
	}
}

// closed runs every connection back to back with no think time for dur
// and returns the completed statements per second.
func (l *serveLoop) closed(ctx context.Context, dur time.Duration) float64 {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		runs []*wireRun
	)
	next.Store(int64(l.next))
	start := time.Now()
	for _, cl := range l.env.clients {
		wg.Add(1)
		go func(cl *client.Client) {
			defer wg.Done()
			for time.Since(start) < dur {
				w := &wireRun{st: l.st.at(int(next.Add(1) - 1))}
				w.due = time.Now()
				l.exec(ctx, cl, w)
				mu.Lock()
				runs = append(runs, w)
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	elapsed := time.Since(start)
	l.next = int(next.Load())
	l.all = append(l.all, runs...)
	return float64(len(runs)) / elapsed.Seconds()
}

func (ss *stepStats) note(rep *report, rate float64) {
	reads := readLatencies(ss.runs)
	p99, _ := percentile(reads, 0.99)
	rep.note("ladder %3.0f/s: %4d statements, reads p50 %.3f ms p99 %.3f ms, backlog at end %d, limit met: %v",
		rate, len(ss.runs), median(reads), p99, ss.backlogEnd, ss.passes())
}

// passes applies the serving limit: read p99 within sloRead and no backlog
// left when the last request was due.
func (ss *stepStats) passes() bool {
	p99, _ := percentile(readLatencies(ss.runs), 0.99)
	return p99 <= ms(sloRead) && ss.backlogEnd <= 1 && failures(ss.runs) == 0
}

func readLatencies(runs []*wireRun) []float64 {
	var xs []float64
	for _, w := range runs {
		if !w.st.write() && w.err == nil {
			xs = append(xs, ms(w.lat()))
		}
	}
	return xs
}

func writeLatencies(runs []*wireRun) []float64 {
	var xs []float64
	for _, w := range runs {
		if w.st.write() && w.err == nil {
			xs = append(xs, ms(w.lat()))
		}
	}
	return xs
}

func failures(runs []*wireRun) int {
	n := 0
	for _, w := range runs {
		if w.err != nil {
			n++
		}
	}
	return n
}

// servePlan splits a run's seconds. Host noise on the reference machine
// comes in bursts of a few seconds, so the light-load step and the
// closed-loop throughput are each measured in short rounds spread between
// the ladder's steps, and the gated figures are medians over the rounds.
type servePlan struct {
	light, closed, ref, step time.Duration
}

func planFor(seconds float64) servePlan {
	s := time.Duration(seconds * float64(time.Second))
	ref := max(s/2, time.Duration(refCount/refRate*float64(time.Second)))
	return servePlan{light: s / 20, closed: s / 20, ref: ref, step: s / 10}
}

func runServeWorkload(ctx context.Context, n int, seed int64, seconds float64) (*report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(serveProcs))
	rep := newReport("serve-mixed")
	env, setup, setupNote, err := timedSetups(func() (*serveEnv, error) { return setupServe(ctx, n, seed) },
		func(e *serveEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()
	rep.Metrics["setup_s"] = setup
	rep.note("data: %s n=%d edges=%d (seed %d); %d connections; %s",
		datasetCode, n, len(env.d.g.Edges), seed, len(env.clients), setupNote)
	st := &stream{workload: "serve-mixed", seed: seed, d: env.d}
	loop := &serveLoop{env: env, st: st}
	runtime.GC()
	loop.warmup(ctx)
	plan := planFor(seconds)

	var (
		light     = &stepStats{}
		closedOps []float64
		ref       *stepStats
		maxRate   float64
		stopped   bool
	)
	// round runs the first ladder rate for a short window, then every
	// connection back to back.
	round := func() {
		ss := loop.openStep(ctx, rateLadder[0], plan.light)
		light.runs = append(light.runs, ss.runs...)
		light.backlogEnd = max(light.backlogEnd, ss.backlogEnd)
		closedOps = append(closedOps, loop.closed(ctx, plan.closed))
	}
	peak := startHeapPeak()
	round()
	for _, rate := range rateLadder[1:] {
		if !stopped {
			dur := plan.step
			var m0 runtime.MemStats
			if rate == refRate {
				dur = plan.ref
				runtime.GC()
				m0 = readMem()
			}
			ss := loop.openStep(ctx, rate, dur)
			if rate == refRate {
				var tally allocTally
				tally.add(m0, readMem(), len(ss.runs))
				tally.set(rep)
				ref = ss
			}
			if ss.passes() {
				maxRate = rate
			} else if rate > refRate {
				stopped = true
			}
			ss.note(rep, rate)
		}
		round()
	}
	rep.Metrics["peak_heap_mb"] = peak.done()
	light.note(rep, rateLadder[0])
	if light.passes() && maxRate == 0 {
		maxRate = rateLadder[0]
	}
	// The gated median is taken at light load, where it tracks service
	// time rather than queueing behind recursions.
	rep.setPercentile("latency_ms_p50", readLatencies(light.runs), 0.5)
	var svc []float64
	for _, w := range light.runs {
		if !w.st.write() && w.err == nil {
			svc = append(svc, ms(w.done.Sub(w.sent)))
		}
	}
	rep.note("ladder %3.0f/s: reads p50 from send (without generator lateness) %.3f ms", rateLadder[0], median(svc))
	rep.Metrics["throughput_ops"] = median(closedOps)
	rep.note("closed loop, %d connections: %.1f statements/s median of %d rounds %.1f",
		len(env.clients), median(closedOps), len(closedOps), closedOps)
	rep.Metrics["max_rate_ops"] = maxRate
	reads, writes := readLatencies(ref.runs), writeLatencies(ref.runs)
	rep.setPercentile("latency_ms_p99", reads, 0.99)
	rep.setPercentile("write_latency_ms_p50", writes, 0.5)
	rep.setPercentile("write_latency_ms_p90", writes, 0.9)
	lag, _ := percentile(ref.lagMS, 0.99)
	rep.note("reference step %.0f/s: %d statements, generator lag p99 %.3fms, backlog max %d",
		refRate, len(ref.runs), lag, ref.backlogMax)

	rep.Attempted = len(loop.all)
	sum, err := loop.verify(ctx, rep)
	if err != nil {
		return nil, err
	}
	rep.Metrics["error_rate"] = ratio(float64(rep.Failed), float64(rep.Attempted))
	rep.note("stream: statements [0,%d) checksum %s; serial-replay answer checksum %016x",
		loop.next, st.checksum(loop.next), sum)
	return rep, nil
}

// warmup runs the first statements closed-loop so connections, sessions
// and caches are live before any timing.
func (l *serveLoop) warmup(ctx context.Context) {
	for i := 0; i < warmupServe; i++ {
		w := &wireRun{st: l.st.at(l.next)}
		l.next++
		w.due = time.Now()
		l.exec(ctx, l.env.clients[i%len(l.env.clients)], w)
		l.all = append(l.all, w)
	}
}

// verify replays the whole stream serially in-process, writes included, and
// checks every wire answer against the replay. A write whose real-time
// order against a read disagrees with stream order, or is unknown because
// the two overlapped, has its rows set aside for that read; everything else
// must match exactly. It returns the replay's answer checksum.
func (l *serveLoop) verify(ctx context.Context, rep *report) (uint64, error) {
	// A pool session, like each server connection: with a session live the
	// catalog invalidates derived structures on a write instead of
	// extending them in place, so the replay runs in the serving regime.
	pool, err := graphsql.OpenPool("oracle")
	if err != nil {
		return 0, err
	}
	if err := l.env.d.loadDB(ctx, pool.DB(), "serve-mixed"); err != nil {
		return 0, err
	}
	db := pool.Session()
	defer db.Close()
	l.byIndex = make([]*wireRun, l.next)
	for _, w := range l.all {
		l.byIndex[w.st.Index] = w
	}
	var sum uint64
	l.replayHash = make([]uint64, l.next)
	for i := 0; i < l.next; i++ {
		s := l.st.at(i)
		t0 := time.Now()
		rows, err := replayStmt(ctx, db, s)
		l.replayBusy += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("serial replay of statement %d: %w", i, err)
		}
		lines := renderSorted(rows)
		if !s.write() {
			l.replayHash[i] = linesHash(lines)
		}
		w := l.byIndex[i]
		if w == nil {
			continue
		}
		if w.err != nil {
			rep.fail("stmt %d (%s): %v", i, s.Kind, w.err)
			continue
		}
		if s.write() {
			continue
		}
		want := digestOf(lines, l.env.d.n)
		sum = foldChecksum(sum, want.base^linesHash(want.fresh))
		if err := l.compare(w, want); err != nil {
			rep.fail("stmt %d (%s key %d): %v", i, s.Kind, s.Src, err)
		}
	}
	return sum, nil
}

// replayStmt runs one statement in-process the way the server does.
func replayStmt(ctx context.Context, db *graphsql.DB, s stmt) (*graphsql.Relation, error) {
	var (
		res *graphsql.QueryResult
		err error
	)
	if s.Kind == "hop" {
		res, err = db.Graph("pg").Match(ctx, s.Pattern)
	} else {
		res, err = db.Query(ctx, s.SQL)
	}
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func (l *serveLoop) compare(w *wireRun, want digest) error {
	if w.ans.base != want.base {
		return fmt.Errorf("answer differs from the serial replay")
	}
	settled := func(lines []string) []string {
		var out []string
		for _, line := range lines {
			if l.settled(w, line) {
				out = append(out, line)
			}
		}
		return out
	}
	got, exp := settled(w.ans.fresh), settled(want.fresh)
	if strings.Join(got, "\n") != strings.Join(exp, "\n") {
		return fmt.Errorf("rows of settled writes %q, want %q", got, exp)
	}
	return nil
}

// settled reports whether every inserted node a row names comes from a
// write whose order against read r is the same in stream order and in real
// time, so the replay's answer for it is the one r had to see.
func (l *serveLoop) settled(r *wireRun, line string) bool {
	for _, f := range strings.Split(line, "\t") {
		v, err := strconv.Atoi(f)
		if err != nil || v < l.env.d.n {
			continue
		}
		wi := v - l.env.d.n
		if wi >= len(l.byIndex) {
			return false
		}
		w := l.byIndex[wi]
		if w == nil || w.err != nil {
			return false
		}
		before := wi < r.st.Index && w.done.Before(r.sent)
		after := wi > r.st.Index && w.sent.After(r.done)
		if !before && !after {
			return false
		}
	}
	return true
}
