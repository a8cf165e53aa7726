// Command benchrunner regenerates the paper's evaluation artifacts (Tables
// 1-3, Figures 7-9) and the ablation studies against the synthetic
// workloads. Example:
//
//	go run ./cmd/benchrunner -exp table1
//	go run ./cmd/benchrunner -exp all -scale 0.5 -reps 3 -par 1
//
// Flags: -exp, -scale, -reps, -mbps, -queries, -par. Throughput, latency and
// per-layer numbers of the running system come from the repo benchmark
// (bash benchmark/run.sh), not from here.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"resultdb/internal/bench"
	"resultdb/internal/parallel"
	"resultdb/internal/wire"
	"resultdb/internal/workload/ssb"
	"resultdb/internal/workload/star"
)

// experiments are the -exp values besides "all".
var experiments = []string{"table1", "fig7", "fig8", "table2", "fig9", "table3", "ssb", "ablation-root", "ablation-fold"}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: "+strings.Join(experiments, "|")+"|all")
		scale   = flag.Float64("scale", 0.25, "JOB workload scale factor (1.0 = 10k titles / 80k cast rows)")
		reps    = flag.Int("reps", 5, "repetitions per measurement (median reported)")
		mbps    = flag.Float64("mbps", 100, "modeled data transfer rate in Mbps (Table 3)")
		queries = flag.String("queries", "", "comma-separated JOB query names (default: experiment's own set)")
		par     = flag.Int("par", 0, "degree of intra-query parallelism (0 = GOMAXPROCS, 1 = serial)")
	)
	flag.Parse()
	if err := run(*exp, *scale, *reps, *mbps, *queries, *par); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

func run(exp string, scale float64, reps int, mbps float64, queryList string, parallelism int) error {
	if exp != "all" && !slices.Contains(experiments, exp) {
		return fmt.Errorf("unknown experiment %q (want %s|all)", exp, strings.Join(experiments, "|"))
	}
	if parallelism < 0 {
		return fmt.Errorf("-par %d: the degree must be 0 (GOMAXPROCS) or positive", parallelism)
	}
	var names []string
	if queryList != "" {
		names = strings.Split(queryList, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
	}

	var env *bench.Env
	if exp != "fig7" && exp != "ssb" {
		start := time.Now()
		var err error
		env, err = bench.NewJOBEnv(scale)
		if err != nil {
			return err
		}
		env.Reps = reps
		env.DB.CoreOptions.Parallelism = parallelism
		fmt.Printf("loaded JOB workload (scale %.2f) in %v, parallelism %d\n\n",
			scale, time.Since(start).Round(time.Millisecond), parallel.NewRun(parallelism).Degree())
	}

	want := func(name string) bool { return exp == name || exp == "all" }

	if want("table1") {
		rows, err := env.Table1(names)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable1(rows))
	}
	if want("ssb") {
		rows, err := bench.SSB(ssb.DefaultConfig(), reps)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatSSB(rows))
	}
	if want("fig7") {
		points, err := bench.Fig7(star.DefaultConfig(), nil)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatFig7(points))
	}
	var fig8 []bench.RMTiming
	if want("fig8") || want("table2") {
		var err error
		fig8, err = env.Fig8(names)
		if err != nil {
			return err
		}
	}
	if want("fig8") {
		fmt.Println(bench.FormatFig8(fig8))
	}
	if want("table2") {
		rows, err := env.Table2(fig8)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable2(rows))
	}
	if want("fig9") {
		rows, err := env.Fig9(names)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatFig9(rows))
	}
	if want("table3") {
		rows, err := env.Table3(names, wire.TransferModel{Mbps: mbps})
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable3(rows))
	}
	if want("ablation-root") {
		rows, variants, err := env.AblationRoot(names)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatAblation("Ablation: root node strategy", rows, variants))
	}
	if want("ablation-fold") {
		rows, variants, err := env.AblationFold(names)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatAblation("Ablation: fold strategy (cyclic queries)", rows, variants))
	}
	return nil
}
