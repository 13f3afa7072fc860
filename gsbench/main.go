// Command gsbench is the repository's benchmark. It drives the public
// graphsql API, the graphsql/client wire client and an in-process
// internal/server on loopback with three seeded workloads, checks every
// answer, and prints the end-to-end metrics; a traced run replays the same
// statements through each module's entry points and prints per-layer
// metrics. WORKLOADS.md records why each workload exists, what it loads and
// the hot spots it exposes.
//
// Usage (from the repository root):
//
//	bash gsbench/run.sh --workload analytics --seed 1 --seconds 25 --trace 0
//	bash gsbench/run.sh --workload all --seed 1 --seconds 25
//	bash gsbench/run.sh --steady 10 --workload pattern --seconds 25
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics. A wrong answer makes the run exit non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
)

var workloads = []string{"analytics", "pattern", "serve-mixed"}

func main() {
	// One worker per CPU the process may use, so runs do not depend on the
	// host's total core count.
	runtime.GOMAXPROCS(runtime.NumCPU())
	var (
		workload = flag.String("workload", "", "analytics, pattern, serve-mixed, or all")
		seed     = flag.Int64("seed", 1, "workload seed: generates the graph and the statement stream")
		seconds  = flag.Float64("seconds", 25, "measured time per run")
		trace    = flag.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
		steady   = flag.Int("steady", 0, "steadiness mode: run each workload this many times in fresh processes and print spreads")
		spans    = flag.String("spans", ".bench_build/traces", "directory the traced run writes its spans to")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *steady, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "gsbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace, steady int, spans string) error {
	if steady > 0 {
		return runSteady(workload, seed, seconds, trace, steady, spans)
	}
	if workload == "all" {
		return runAll(seed, seconds, trace, spans)
	}
	if !validWorkload(workload) {
		return fmt.Errorf("unknown workload %q (want analytics, pattern, serve-mixed, or all)", workload)
	}
	if seconds <= 0 || trace < 0 || trace > 1 {
		return fmt.Errorf("bad arguments: --seconds %v --trace %d", seconds, trace)
	}
	ctx := context.Background()
	var (
		rep *report
		err error
	)
	switch {
	case trace == 1:
		rep, err = runTraced(ctx, workload, defaultN, seed, seconds, spans)
	case workload == "serve-mixed":
		rep, err = runServeWorkload(ctx, defaultN, seed, seconds)
	default:
		rep, err = runClosedWorkload(ctx, workload, defaultN, seed, seconds)
	}
	if err != nil {
		return err
	}
	if err := rep.print(os.Stdout, trace == 1); err != nil {
		return err
	}
	if rep.Failed > 0 {
		return fmt.Errorf("%s: %d of %d statements failed or answered wrong", workload, rep.Failed, rep.Attempted)
	}
	return nil
}

func validWorkload(w string) bool {
	for _, x := range workloads {
		if x == w {
			return true
		}
	}
	return false
}
