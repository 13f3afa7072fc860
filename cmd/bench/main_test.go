package main

import (
	"strings"
	"testing"

	"repro/internal/exp"
)

func tiny() exp.Config { return exp.Config{Nodes: 60, Seed: 1, Iters: 3} }

func TestRunSingleExperiments(t *testing.T) {
	for _, name := range []string{"table1", "table2", "table3", "table4", "table6", "fig12", "fig13", "resources"} {
		if err := run(name, tiny()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("fig99", tiny()); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestRunCSVMode(t *testing.T) {
	asCSV = true
	defer func() { asCSV = false }()
	if err := run("table1", tiny()); err != nil {
		t.Fatal(err)
	}
}

func TestRunPerfJSON(t *testing.T) {
	asJSON = true
	defer func() { asJSON = false }()
	if err := run("perf", tiny()); err != nil {
		t.Fatal(err)
	}
}

func TestPerfRecordsShape(t *testing.T) {
	cfg := tiny()
	recs, err := exp.Run("perf", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no perf records")
	}
	for _, r := range recs {
		if r.Experiment != "perf" || r.Name == "" || r.Profile == "" || r.Dataset == "" || r.Variant == "" {
			t.Errorf("incomplete record: %+v", r)
		}
		if r.NsOp <= 0 || r.Iterations <= 0 {
			t.Errorf("non-positive timing/iters: %+v", r)
		}
		if r.NoFusion {
			t.Errorf("default config must run fused: %+v", r)
		}
	}
	s, err := exp.RecordsJSON(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "\"index_builds\"") || !strings.Contains(s, "\"tuples_materialized\"") {
		t.Error("JSON missing counter fields")
	}
	// The -nofusion baseline must flag itself.
	cfg.NoFusion = true
	recs2, err := exp.Run("perf", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !recs2[0].NoFusion {
		t.Error("NoFusion config must emit nofusion=true")
	}
}
