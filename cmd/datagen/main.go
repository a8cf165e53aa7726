// Command datagen materializes the synthetic workloads as CSV files (typed
// headers, \N NULLs) so they can be inspected, versioned, or loaded into
// other database systems for cross-checking.
//
// Usage:
//
//	datagen -workload job -scale 0.25 -out ./data
//	datagen -workload star -out ./data
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"resultdb/internal/csvio"
	"resultdb/internal/db"
	"resultdb/internal/workload/hierarchy"
	"resultdb/internal/workload/job"
	"resultdb/internal/workload/star"
)

func main() {
	var (
		workload = flag.String("workload", "job", "workload: job | star | hierarchy")
		scale    = flag.Float64("scale", 0.25, "JOB workload scale factor")
		seed     = flag.Int64("seed", 42, "generator seed")
		out      = flag.String("out", "data", "output directory")
	)
	flag.Parse()
	if err := run(*workload, *scale, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(workload string, scale float64, seed int64, out string) error {
	d := db.New()
	var err error
	switch workload {
	case "job":
		err = job.Load(d, job.Config{Scale: scale, Seed: seed})
	case "star":
		cfg := star.DefaultConfig()
		cfg.Seed = seed
		err = star.Load(d, cfg)
	case "hierarchy":
		cfg := hierarchy.DefaultConfig()
		cfg.Seed = seed
		err = hierarchy.Load(d, cfg)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	for _, name := range d.TableNames() {
		t, err := d.Table(name)
		if err != nil {
			return err
		}
		path := filepath.Join(out, name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := csvio.Dump(t, f); err != nil {
			f.Close()
			return fmt.Errorf("dumping %s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("%-24s %8d rows -> %s\n", name, t.Len(), path)
	}
	return nil
}
