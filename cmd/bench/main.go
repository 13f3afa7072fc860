// Command bench regenerates the paper's tables and figures on the scaled
// synthetic datasets.
//
// Usage:
//
//	bench -exp all            # everything (default)
//	bench -exp table4 -nodes 3000
//	bench -exp fig11 -seed 7
//	bench -exp csr            # an A/B experiment: both variants per cell
//	bench -gate               # every A/B experiment against its baseline
//
// Experiments: table1 table2 table3 table4 table5 table6 table7 fig7 fig8
// fig10 fig11 fig12 fig13 resources opcounts perf delta csr vector
// motif concurrent.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
)

func main() {
	var (
		which      = flag.String("exp", "all", "experiment to run (all, table1..table7, fig7, fig8, fig10..fig13, resources, opcounts, perf, delta, csr, vector, motif, concurrent)")
		nodes      = flag.Int("nodes", 0, "scaled dataset node count (0 = default)")
		seed       = flag.Int64("seed", 1, "dataset generator seed")
		iters      = flag.Int("iters", 0, "fixed iterations for PR/HITS/LP (0 = paper's 15)")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		workers    = flag.Int("workers", 1, "morsel-parallel probe workers (1 = serial, paper-faithful)")
		nofusion   = flag.Bool("nofusion", false, "disable fused MV-/MM-join kernels and the index cache (A/B baseline)")
		jsonOut    = flag.Bool("json", false, "emit machine-readable records (perf, delta, csr, vector, motif, concurrent)")
		gate       = flag.Bool("gate", false, "run the A/B experiments (all, or the one -exp names) and check them against the committed BENCH_*.json baselines")
		observe    = flag.Bool("observe", false, "attach a span sink to every engine (observability overhead A/B)")
		metrics    = flag.Bool("metrics", false, "dump the process-wide metrics registry as JSON after the run")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file after the run")
	)
	flag.Parse()
	cfg := exp.Config{Nodes: *nodes, Seed: *seed, Iters: *iters, Workers: *workers, NoFusion: *nofusion, Observe: *observe}
	asCSV = *csv
	asJSON = *jsonOut
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench: cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	do := run
	if *gate {
		do = runGate
	}
	if err := do(strings.ToLower(*which), cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		exit(1)
	}
	if *metrics {
		if err := dumpMetrics(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			exit(1)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
			exit(1)
		}
		defer f.Close()
		runtime.GC() // settle allocations so the profile shows live heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
			exit(1)
		}
	}
}

// exit stops the CPU profile (running deferred handlers) before exiting, so
// a failed run still leaves a readable profile.
func exit(code int) {
	pprof.StopCPUProfile()
	os.Exit(code)
}

// dumpMetrics writes the process-wide metrics registry to w (stderr, so
// -json stdout stays machine-parseable).
func dumpMetrics(w io.Writer) error {
	js, err := obs.Global.JSON()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "-- metrics --\n%s\n", js)
	return err
}

// asCSV and asJSON switch output format (set from -csv / -json; variables so
// tests can exercise all modes).
var (
	asCSV  bool
	asJSON bool
)

// step is one experiment the -exp flag can name.
type step struct {
	name string
	f    func() error
}

func show(t *exp.Table, err error) error {
	if err != nil {
		return err
	}
	if asCSV {
		fmt.Println(t.CSV())
	} else {
		fmt.Println(t.String())
	}
	return nil
}

// showAB runs an A/B experiment and prints both variants of every cell,
// as records (-json) or a table.
func showAB(name string, cfg exp.Config) error {
	recs, err := exp.Run(name, cfg)
	if err != nil {
		return err
	}
	if !asJSON {
		return show(exp.ABTable(name, recs), nil)
	}
	s, err := exp.RecordsJSON(recs)
	if err != nil {
		return err
	}
	fmt.Println(s)
	return nil
}

func run(which string, cfg exp.Config) error {
	showAll := func(ts []*exp.Table, err error) error {
		if err != nil {
			return err
		}
		for _, t := range ts {
			fmt.Println(t.String())
		}
		return nil
	}
	all := which == "all"
	ran := false
	steps := []step{
		{"table1", func() error { return show(exp.Table1(), nil) }},
		{"table2", func() error { return show(exp.Table2(), nil) }},
		{"table3", func() error { return show(exp.Table3(cfg), nil) }},
		{"table4", func() error { return show(exp.UnionByUpdateTable("WG", cfg)) }},
		{"table5", func() error { return show(exp.UnionByUpdateTable("PC", cfg)) }},
		{"table6", func() error { return show(exp.AntiJoinTable("WG", cfg)) }},
		{"table7", func() error { return show(exp.AntiJoinTable("PC", cfg)) }},
		{"fig7", func() error { return showAll(exp.GraphAlgosTable(true, cfg)) }},
		{"fig8", func() error { return showAll(exp.GraphAlgosTable(false, cfg)) }},
		{"fig10", func() error { return showAll(exp.IndexingTable(cfg)) }},
		{"fig11", func() error { return showAll(exp.VsSystemsTable(cfg)) }},
		{"fig12", func() error { return show(exp.WithVsWithPlusPR(cfg)) }},
		{"fig13", func() error { return showAll(exp.TCAndAPSPTables(cfg)) }},
		{"resources", func() error { return show(exp.ResourceTable(cfg)) }},
		{"opcounts", func() error { return show(exp.OperatorCountTable(cfg)) }},
	}
	for _, name := range exp.ABExperiments() {
		steps = append(steps, step{name, func() error { return showAB(name, cfg) }})
	}
	for _, s := range steps {
		if !all && which != s.name {
			continue
		}
		ran = true
		if err := s.f(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", which)
	}
	return nil
}

// runGate measures the A/B experiments (every one, or just which) and
// checks each against its gate spec and committed baseline, read from the
// working directory (the repo root). It reports every experiment before
// failing.
func runGate(which string, cfg exp.Config) error {
	var failed []string
	ran := false
	for _, name := range exp.ABExperiments() {
		if which != "all" && which != name {
			continue
		}
		ran = true
		base, err := exp.LoadRecords(exp.BaselineFile(name))
		if err != nil {
			return fmt.Errorf("gate %s: %w", name, err)
		}
		start := time.Now()
		recs, err := exp.Run(name, cfg)
		if err != nil {
			return fmt.Errorf("gate %s: %w", name, err)
		}
		summary, fails := exp.Gate(name, recs, base)
		fmt.Printf("== gate %s (%.0fs): %s\n", name, time.Since(start).Seconds(), summary)
		for _, f := range fails {
			fmt.Printf("  FAIL %s\n", f)
		}
		if len(fails) > 0 {
			failed = append(failed, name)
		}
	}
	if !ran {
		return fmt.Errorf("no gate for experiment %q", which)
	}
	if len(failed) > 0 {
		return fmt.Errorf("gate failed: %s", strings.Join(failed, ", "))
	}
	fmt.Println("gate: OK")
	return nil
}
