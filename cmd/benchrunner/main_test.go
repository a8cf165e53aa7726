package main

import "testing"

// TestRunEachExperiment smoke-tests the runner end to end at a tiny scale:
// every experiment id must execute and print without error.
func TestRunEachExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is not -short")
	}
	for _, exp := range experiments {
		t.Run(exp, func(t *testing.T) {
			queries := "3c,9c"
			if exp == "ablation-fold" {
				queries = "6a"
			}
			if err := run(exp, 0.02, 1, 100, queries, 0); err != nil {
				t.Fatalf("run(%s): %v", exp, err)
			}
		})
	}
}

func TestRunRejectsUnknownQueries(t *testing.T) {
	if err := run("table1", 0.02, 1, 100, "zz", 0); err == nil {
		t.Fatal("unknown query should error")
	}
}

// TestRunRejectsUnknownExperiment: an -exp value that names no experiment
// fails instead of loading the workload and printing nothing.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"ablation-order", "ablation-bloom", "tabel1", ""} {
		if err := run(exp, 0.02, 1, 100, "", 0); err == nil {
			t.Errorf("run(%q) should error", exp)
		}
	}
}
