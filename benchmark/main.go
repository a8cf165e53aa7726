// Command benchmark is the repository's performance instrument. It builds
// cmd/resultdbd from the tree, drives it as a child process over loopback
// TCP for the end-to-end metrics, and replays the same requests in-process
// for the per-layer metrics. README.md explains the workloads, the metrics
// and how they interact; BENCHMARK.json at the repository root fixes the
// names and the regression bounds.
//
//	bash benchmark/run.sh                       # all workloads, both modes, out/BENCH.json
//	bash benchmark/run.sh -workload job_warm -trace 0 -seed 7 -seconds 10
//	bash benchmark/run.sh -compare a.json b.json
//	bash benchmark/run.sh -update-golden
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"resultdb/internal/parallel"
)

// spec mirrors BENCHMARK.json.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(l layout) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(l.root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// untracedNames lists, in print order, every metric an untraced run can
// report; one that does not apply to a workload prints as null.
var untracedNames = []metricSpec{
	{Name: "setup_s", Unit: "s"},
	{Name: "throughput_ops_s", Unit: "1/s"},
	{Name: "latency_p50_ms", Unit: "ms"},
	{Name: "latency_p99_ms", Unit: "ms"},
	{Name: "write_ack_p50_ms", Unit: "ms"},
	{Name: "write_ack_p99_ms", Unit: "ms"},
	{Name: "wire_bytes_per_op", Unit: "bytes"},
	{Name: "server_cpu_ms_per_op", Unit: "ms"},
	{Name: "server_peak_rss_mb", Unit: "MiB"},
	{Name: "error_rate", Unit: "ratio"},
	{Name: "acked_writes_lost", Unit: "count"},
	{Name: "gen.writer_lag_ms", Unit: "ms"},
	{Name: "gen.client_cpu_ms_per_op", Unit: "ms"},
}

// document is out/BENCH.json: every run of one invocation, with the facts
// about the host needed to read the numbers.
type document struct {
	Host hostFacts `json:"host"`
	// Claim is always null: a benchmark document measures, it claims no gain.
	Claim *string  `json:"claim"`
	Runs  []runDoc `json:"runs"`
}

type hostFacts struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Parallelism int     `json:"parallelism"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Conns       int     `json:"conns"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
}

type runDoc struct {
	Seed      int64                  `json:"seed"`
	Workloads map[string]workloadDoc `json:"workloads"`
}

type workloadDoc struct {
	EndToEnd *result `json:"end_to_end,omitempty"`
	PerLayer *result `json:"per_layer,omitempty"`
}

// commit names the checked-out commit, or "unknown" when the tree is not a
// git checkout of its own (the acceptance driver's is not).
func commit(l layout) string {
	if _, err := os.Stat(filepath.Join(l.root, ".git")); err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = l.root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printResult writes one `workload metric value unit` line per metric: the
// names of order first (null when the run has no value), then the rest.
func printResult(w *workload, r *result, order []metricSpec) {
	seen := map[string]bool{}
	for _, m := range order {
		seen[m.Name] = true
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Printf("%s %s %.6g %s\n", w.name, m.Name, v.Value, v.Unit)
		} else {
			fmt.Printf("%s %s null %s\n", w.name, m.Name, m.Unit)
		}
	}
	var rest []string
	for name := range r.Metrics {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		fmt.Printf("%s %s %.6g %s\n", w.name, name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	fmt.Printf("%s samples %d count\n", w.name, r.Samples)
}

// driverLine renders the one-line JSON the acceptance driver reads: exactly
// the metrics BENCHMARK.json declares for the mode.
func driverLine(r *result, want []metricSpec) (string, error) {
	metrics := map[string]metric{}
	for _, m := range want {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("metric %s declared in BENCHMARK.json was not measured", m.Name)
		}
		metrics[m.Name] = v
	}
	raw, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	return string(raw), err
}

func run() error {
	var (
		workloadFlag = flag.String("workload", "all", "job_cold | job_warm | star_transfer | mixed_rw | all")
		seed         = flag.Int64("seed", 1, "seed for request order, selectivity order and insert values")
		seconds      = flag.Float64("seconds", 0, "measured window per run in seconds (0 = run_seconds of BENCHMARK.json)")
		traceFlag    = flag.Int("trace", -1, "0 = end-to-end run only, 1 = traced run only, -1 = both")
		runs         = flag.Int("runs", 1, "repeat everything this many times, run i with seed+i")
		conns        = flag.Int("conns", 2, "client connections; capped at the number of CPUs")
		compare      = flag.Bool("compare", false, "compare two BENCH.json documents given as arguments")
		update       = flag.Bool("update-golden", false, "regenerate testdata/golden.json and exit")
	)
	flag.Parse()
	l, err := findLayout()
	if err != nil {
		return err
	}
	sp, err := loadSpec(l)
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two BENCH.json files")
		}
		return compareDocs(sp, flag.Arg(0), flag.Arg(1))
	}
	if *update {
		return updateGolden(l.bench)
	}

	var selected []*workload
	for _, w := range workloads() {
		if *workloadFlag == "all" || *workloadFlag == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", *workloadFlag)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	window := time.Duration(*seconds * float64(time.Second))
	if n := runtime.NumCPU(); *conns > n {
		*conns = n
	}
	if err := os.MkdirAll(l.out, 0o755); err != nil {
		return err
	}
	o, err := loadOracle(l.bench)
	if err != nil {
		return err
	}
	bin, err := buildServer(l)
	if err != nil {
		return err
	}

	doc := document{Host: hostFacts{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Parallelism: parallel.Degree(0),
		GoVersion: runtime.Version(), Commit: commit(l), Conns: *conns, Seed: *seed, Seconds: *seconds,
	}}
	var last *result
	for i := 0; i < *runs; i++ {
		rd := runDoc{Seed: *seed + int64(i), Workloads: map[string]workloadDoc{}}
		for _, w := range selected {
			var wd workloadDoc
			if *traceFlag != 1 {
				if wd.EndToEnd, err = runUntraced(l, bin, w, o, *conns, rd.Seed, window); err != nil {
					return err
				}
				printResult(w, wd.EndToEnd, untracedNames)
				last = wd.EndToEnd
			}
			if *traceFlag != 0 {
				if wd.PerLayer, err = runTraced(l, w, o, rd.Seed, window, tracedPassesMin); err != nil {
					return err
				}
				printResult(w, wd.PerLayer, nil)
				last = wd.PerLayer
			}
			rd.Workloads[w.name] = wd
		}
		doc.Runs = append(doc.Runs, rd)
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(l.out, "BENCH.json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}

	// One workload in one mode is how the acceptance driver calls: it reads
	// the last line of standard output.
	if len(selected) == 1 && *runs == 1 && *traceFlag >= 0 {
		want := sp.EndToEnd
		if *traceFlag == 1 {
			want = sp.PerLayer
		}
		line, err := driverLine(last, want)
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
