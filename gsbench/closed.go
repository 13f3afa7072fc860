package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/graphsql"
)

// A run builds its set-up at least setupMin times, and more while the
// builds together take less than setupBudget, up to setupMax; setup_s is
// the median. A cheap set-up (pattern's takes about 60 ms) thus gets enough
// builds that its median holds still between runs.
const (
	setupMin    = 7
	setupMax    = 31
	setupBudget = 1500 * time.Millisecond
)

// closedEnv is the analytics or pattern set-up: the generated data loaded
// into one in-process database per engine profile the stream uses.
type closedEnv struct {
	d   *dataset
	dbs map[string]*graphsql.DB
}

func setupClosed(ctx context.Context, workload string, n int, seed int64) (*closedEnv, error) {
	env := &closedEnv{d: newDataset(n, seed), dbs: map[string]*graphsql.DB{}}
	profs := []string{"oracle"}
	if workload == "analytics" {
		profs = analyticsProfs
	}
	for _, p := range profs {
		db, err := graphsql.Open(p)
		if err != nil {
			return nil, err
		}
		if err := env.d.loadDB(ctx, db, workload); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		env.dbs[p] = db
	}
	return env, nil
}

// loop returns a closed loop over the workload's stream that runs each
// statement through graphsql.DB.Query on its profile's database.
func (e *closedEnv) loop(ctx context.Context, workload string, seed int64, rep *report) *closedLoop {
	return &closedLoop{st: &stream{workload: workload, seed: seed, d: e.d}, chk: newChecker(e.d), rep: rep,
		exec: func(s stmt) (*graphsql.Relation, error) {
			res, err := e.dbs[s.Profile].Query(ctx, s.SQL)
			if err != nil {
				return nil, err
			}
			return res.Rows, nil
		}}
}

// timedSetups builds the set-up on a settled heap as often as the rule
// above says and returns the last result, the median build time in
// seconds and a note on the builds. Earlier results are released with
// release before the next build.
func timedSetups[T any](build func() (T, error), release func(T)) (T, float64, string, error) {
	var (
		last  T
		times []float64
		total float64
	)
	for i := 0; i < setupMin || (total < setupBudget.Seconds() && i < setupMax); i++ {
		if i > 0 {
			release(last)
			var zero T
			last = zero
		}
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, "", err
		}
		times = append(times, time.Since(t0).Seconds())
		total += times[len(times)-1]
		last = v
	}
	q1, q3 := quartiles(times)
	return last, median(times), fmt.Sprintf("setup median of %d builds (quartiles %.4fs, %.4fs)", len(times), q1, q3), nil
}

// closedRun is one executed statement of a closed loop.
type closedRun struct {
	st   stmt
	lat  time.Duration
	gap  time.Duration // harness time since the previous statement ended
	hash uint64
}

// closedLoop drives a single-client closed loop over the stream: a warm-up
// cycle, then whole cycles until the run's time is spent. Every answer is
// checked against the reference computations; allocations are counted
// around each statement only, so the checks do not tax the figures. Each
// statement starts on a settled heap: the pattern workload's anchored
// 2-hop holds a 1.7 GB intermediate, and without a collection in between
// the previous statement's garbage would double the process's peak and
// charge one statement's collection to the next.
type closedLoop struct {
	st    *stream
	chk   *checker
	rep   *report
	exec  func(stmt) (*graphsql.Relation, error)
	runs  []closedRun
	tally allocTally
	sum   uint64
	last  time.Time // when the previous statement ended
}

// step runs statement i and checks its answer.
func (c *closedLoop) step(i int, measured bool) {
	s := c.st.at(i)
	runtime.GC()
	m0 := readMem()
	t0 := time.Now()
	rows, err := c.exec(s)
	lat := time.Since(t0)
	m1 := readMem()
	var gap time.Duration
	if !c.last.IsZero() {
		gap = t0.Sub(c.last)
	}
	c.last = t0.Add(lat)
	if measured {
		c.tally.add(m0, m1, 1)
		c.rep.Attempted++
	}
	run := closedRun{st: s, lat: lat, gap: gap}
	if err == nil {
		err = c.chk.check(s, rows)
	}
	if err != nil {
		c.rep.fail("stmt %d (%s on %s): %v", i, s.Kind, s.Profile, err)
	}
	run.hash = linesHash(renderSorted(rows))
	c.sum = foldChecksum(c.sum, run.hash)
	c.runs = append(c.runs, run)
}

// minMeasured is the fewest statements a closed loop measures: a median is
// reported only with ten samples beyond it.
const minMeasured = 20

// run executes the warm-up cycle and then whole cycles for at least
// seconds and at least minMeasured statements, returning the measured runs.
func (c *closedLoop) run(seconds float64) []closedRun {
	cycle := c.st.cycleLen()
	for i := 0; i < cycle; i++ {
		c.step(i, false)
	}
	c.rep.note("warm-up: statements [0,%d) answer checksum %016x", cycle, c.sum)
	from := len(c.runs)
	start := time.Now()
	for i := cycle; i-cycle < minMeasured || time.Since(start).Seconds() < seconds; {
		for j := 0; j < cycle; j, i = j+1, i+1 {
			c.step(i, true)
		}
	}
	return c.runs[from:]
}

func runClosedWorkload(ctx context.Context, workload string, n int, seed int64, seconds float64) (*report, error) {
	rep := newReport(workload)
	env, setup, setupNote, err := timedSetups(func() (*closedEnv, error) { return setupClosed(ctx, workload, n, seed) },
		func(*closedEnv) {})
	if err != nil {
		return nil, err
	}
	rep.Metrics["setup_s"] = setup
	rep.note("data: %s n=%d edges=%d (seed %d); %s", datasetCode, n, len(env.d.g.Edges), seed, setupNote)
	loop := env.loop(ctx, workload, seed, rep)
	st := loop.st
	peak := startHeapPeak()
	runs := loop.run(seconds)
	rep.Metrics["peak_heap_mb"] = peak.done()
	// Throughput is the statements per second implied by the median
	// latency at each position of the cycle: one statement stalled by the
	// host moves a median by one rank instead of moving the mean.
	cycle := st.cycleLen()
	byPos := make([][]float64, cycle)
	var lats []float64
	var busy time.Duration
	for k, r := range runs {
		lats = append(lats, ms(r.lat))
		byPos[k%cycle] = append(byPos[k%cycle], r.lat.Seconds())
		busy += r.lat
	}
	cycleTime := 0.0
	for _, xs := range byPos {
		cycleTime += median(xs)
	}
	rep.Metrics["throughput_ops"] = float64(cycle) / cycleTime
	rep.setPercentile("latency_ms_p50", lats, 0.5)
	rep.setPercentile("latency_ms_p90", lats, 0.9)
	loop.tally.set(rep)
	rep.Metrics["error_rate"] = ratio(float64(rep.Failed), float64(rep.Attempted))
	rep.note("stream: statements [0,%d) checksum %s; answer checksum %016x",
		len(loop.runs), st.checksum(len(loop.runs)), loop.sum)
	rep.note("measured %d statements (%d whole cycles) in %.2fs busy", len(runs), len(runs)/st.cycleLen(), busy.Seconds())
	noteKinds(rep, runs)
	return rep, nil
}

// noteKinds prints the median latency of each statement kind and profile,
// the figure a change to one statement shape moves.
func noteKinds(rep *report, runs []closedRun) {
	byKind := map[string][]float64{}
	var keys []string
	for _, r := range runs {
		k := r.st.Kind + "@" + r.st.Profile
		if _, ok := byKind[k]; !ok {
			keys = append(keys, k)
		}
		byKind[k] = append(byKind[k], ms(r.lat))
	}
	for _, k := range keys {
		q1, q3 := quartiles(byKind[k])
		rep.note("kind %-16s median %10.3f ms over %d (quartiles %.3f, %.3f)", k, median(byKind[k]), len(byKind[k]), q1, q3)
	}
}
