package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

func readDoc(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// values collects one end-to-end metric of one workload over a document's
// runs.
func (d *document) values(workload, name string) []float64 {
	var v []float64
	for _, run := range d.Runs {
		if e := run.Workloads[workload].EndToEnd; e != nil {
			if m, ok := e.Metrics[name]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// compareDocs prints, for every end-to-end metric of every workload, both
// sides' median, quartiles and spread, and judges b against a by the bound
// BENCHMARK.json fixes. A spread wider than the bound leaves the pair
// unresolved, never unchanged. Failed ops and lost writes may not rise.
func compareDocs(sp *spec, pathA, pathB string) error {
	a, err := readDoc(pathA)
	if err != nil {
		return err
	}
	b, err := readDoc(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-22s %12s %25s %7s %12s %25s %7s %8s %6s  %s\n",
		"workload", "metric", "median_a", "quartiles_a", "sprd_a", "median_b", "quartiles_b", "sprd_b", "worse", "bound", "verdict")
	regressed := 0
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case math.IsNaN(sa) || math.IsNaN(sb) || sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			q1a, q3a := quartiles(va)
			q1b, q3b := quartiles(vb)
			fmt.Printf("%-14s %-22s %12.6g %25s %6.1f%% %12.6g %25s %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, ma, fmt.Sprintf("[%.6g, %.6g]", q1a, q3a), 100*sa,
				mb, fmt.Sprintf("[%.6g, %.6g]", q1b, q3b), 100*sb, 100*worse, 100*m.Bound, verdict)
		}
		for _, name := range []string{"error_rate", "acked_writes_lost"} {
			va, vb := a.values(w.Name, name), b.values(w.Name, name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			maxA, maxB := slices.Max(va), slices.Max(vb)
			verdict := "ok"
			if maxB > maxA {
				verdict = "regressed"
				regressed++
			}
			fmt.Printf("%-14s %-22s max_a %.6g max_b %.6g (may not rise)  %s\n", w.Name, name, maxA, maxB, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric x workload pairs regressed", regressed)
	}
	return nil
}
