package main

import (
	"os"
	"regexp"
	"testing"
	"time"
)

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// TestSmoke runs every workload in both modes with one-second windows and
// checks the contract between the program and BENCHMARK.json: every declared
// workload and metric is emitted under a well-formed name with the declared
// unit, and nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts resultdbd child processes; skipped with -short")
	}
	l, err := findLayout()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(l)
	if err != nil {
		t.Fatal(err)
	}
	o, err := loadOracle(l.bench)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(l.out, 0o755); err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(sp.Workloads), len(workloads()))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	check := func(t *testing.T, r *result, declared []metricSpec, nonZero bool) {
		t.Helper()
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%d of %d ops failed", r.Failed, r.Attempted)
		}
		for n := range r.Metrics {
			if !name.MatchString(n) {
				t.Errorf("malformed metric name %q", n)
			}
		}
		for _, m := range declared {
			got, ok := r.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("declared metric %s not emitted", m.Name)
			case got.Unit != m.Unit:
				t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
			case nonZero && !(got.Value > 0):
				t.Errorf("%s = %v, end-to-end metrics must never be 0", m.Name, got.Value)
			}
		}
		if _, err := driverLine(r, declared); err != nil {
			t.Error(err)
		}
	}
	for _, decl := range sp.Workloads {
		w := workloadByName(decl.Name)
		if w == nil || !name.MatchString(decl.Name) {
			t.Fatalf("BENCHMARK.json workload %q is unknown or malformed", decl.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			e2e, err := runUntraced(l, bin, w, o, 2, 1, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			check(t, e2e, sp.EndToEnd, true)
			if v := e2e.Metrics["error_rate"].Value; v != 0 {
				t.Errorf("error_rate = %v", v)
			}
			if lost, ok := e2e.Metrics["acked_writes_lost"]; ok != w.writer || lost.Value != 0 {
				t.Errorf("acked_writes_lost = %v (reported: %v)", lost.Value, ok)
			}
			layers, err := runTraced(l, w, o, 1, time.Second, 1)
			if err != nil {
				t.Fatal(err)
			}
			check(t, layers, sp.PerLayer, false)
		})
	}
}
