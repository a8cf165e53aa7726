package bench

import (
	"strings"
	"testing"

	"resultdb/internal/wire"
	"resultdb/internal/workload/star"
)

// smallEnv loads a tiny JOB environment shared by the harness tests.
func smallEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewJOBEnv(0.05)
	if err != nil {
		t.Fatal(err)
	}
	env.Reps = 1
	return env
}

func TestTable1ShapesHold(t *testing.T) {
	env := smallEnv(t)
	rows, err := env.Table1(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want the paper's 10 queries", len(rows))
	}
	for _, r := range rows {
		// RDB never exceeds RDBRP (it projects a subset of attributes).
		if r.RDB > r.RDBRP {
			t.Errorf("%s: RDB (%d) > RDBRP (%d)", r.Query, r.RDB, r.RDBRP)
		}
	}
	// The headline query 16b must compress strongly.
	for _, r := range rows {
		if r.Query == "16b" && r.RatioRDB() < 2 {
			t.Errorf("16b compression ratio = %.1f, expected > 2", r.RatioRDB())
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "16b") || !strings.Contains(out, "compression ratio") {
		t.Errorf("format output incomplete:\n%s", out)
	}
}

func TestFig7ShapesHold(t *testing.T) {
	cfg := star.Config{Dims: 3, DimRows: 10, PayloadLen: 20, Seed: 7}
	points, err := Fig7(cfg, []float64{0.2, 0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for i, p := range points {
		if !(p.ST >= p.RDBRP && p.RDBRP >= p.RDB) {
			t.Errorf("point %d: ST %d >= RDBRP %d >= RDB %d violated", i, p.ST, p.RDBRP, p.RDB)
		}
		if p.Redundancy() < 0 {
			t.Errorf("point %d: negative redundancy", i)
		}
	}
	// Sizes grow with selectivity; the ST-RDBRP gap widens (Figure 7).
	if points[0].ST >= points[2].ST {
		t.Error("ST size must grow with selectivity")
	}
	if points[0].Redundancy() >= points[2].Redundancy() {
		t.Error("redundancy gap must widen with selectivity")
	}
	if !strings.Contains(FormatFig7(points), "selectivity") {
		t.Error("format output incomplete")
	}
}

func TestFig8AndTable2(t *testing.T) {
	env := smallEnv(t)
	names := []string{"3c", "9c", "11c"}
	rows, err := env.Fig8(names)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Times) == 0 {
			t.Errorf("%s: no method produced a timing (errs: %v)", r.Query, r.Errs)
		}
		best, bestT := r.Best()
		if best == 0 || bestT <= 0 {
			t.Errorf("%s: Best() = %v, %v", r.Query, best, bestT)
		}
	}
	over, err := env.Table2(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range over {
		if r.STTime <= 0 {
			t.Errorf("%s: zero ST time", r.Query)
		}
	}
	if !strings.Contains(FormatFig8(rows), "RM4") {
		t.Error("fig8 format incomplete")
	}
	if !strings.Contains(FormatTable2(over), "best-method wins") {
		t.Error("table2 format incomplete")
	}
}

func TestFig9(t *testing.T) {
	env := smallEnv(t)
	rows, err := env.Fig9([]string{"3c", "6a", "18c"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ST <= 0 || r.SemiJoin <= 0 {
			t.Errorf("%s: non-positive timings %+v", r.Query, r)
		}
		if r.Query == "6a" && (r.Stats == nil || !r.Stats.Cyclic) {
			t.Errorf("6a should report a cyclic join graph: %v", r.Stats)
		}
	}
	if !strings.Contains(FormatFig9(rows), "SemiJoinAlgo") {
		t.Error("fig9 format incomplete")
	}
}

func TestTable3(t *testing.T) {
	env := smallEnv(t)
	rows, err := env.Table3([]string{"9c", "16b"}, wire.TransferModel{Mbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Best == 0 {
			t.Errorf("%s: no best method", r.Query)
		}
		if r.STTotal() != r.STExec+r.STTransfer {
			t.Error("STTotal arithmetic")
		}
		if r.RMTotal() != r.RMExec+r.RMTransfer+r.PostJoin {
			t.Error("RMTotal arithmetic")
		}
	}
	// 16b is the high-redundancy query: its subdatabase must ship fewer
	// bytes, i.e. smaller transfer time.
	for _, r := range rows {
		if r.Query == "16b" && r.RMTransfer >= r.STTransfer {
			t.Errorf("16b: RM transfer %v >= ST transfer %v", r.RMTransfer, r.STTransfer)
		}
	}
	if !strings.Contains(FormatTable3(rows), "postjoin") {
		t.Error("table3 format incomplete")
	}
}

func TestAblations(t *testing.T) {
	env := smallEnv(t)
	rows, variants, err := env.AblationRoot([]string{"9c", "22c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != 4 || len(rows) != 2 {
		t.Fatalf("root ablation shape: %d variants, %d rows", len(variants), len(rows))
	}
	for _, r := range rows {
		if r.SemiJoins["no-early-stop"] < r.SemiJoins["heuristic"] {
			t.Errorf("%s: early stop should never add semi-joins (%d vs %d)",
				r.Query, r.SemiJoins["heuristic"], r.SemiJoins["no-early-stop"])
		}
	}
	frows, fvars, err := env.AblationFold(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fvars) != 4 || len(frows) == 0 {
		t.Fatalf("fold ablation shape: %d variants, %d rows", len(fvars), len(frows))
	}
	out := FormatAblation("x", rows, variants)
	if !strings.Contains(out, "heuristic") {
		t.Error("ablation format incomplete")
	}
}
