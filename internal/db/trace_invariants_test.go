package db_test

// Trace-invariant tests: the tracer is an observer, and what it observes must
// obey the algebra. Semi-joins never grow their input, the output spans must
// report exactly the result sets the query returned, and the deterministic
// portion of the trace (CountsFingerprint) must be bit-identical at any
// degree of parallelism. These run against the JOB templates so both the
// acyclic (Yannakakis) and cyclic (folding) paths are covered, and are
// exercised under -race by verify.sh.

import (
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/sqlparse"
	"resultdb/internal/trace"
	"resultdb/internal/workload/job"
)

func loadJOBTrace(t *testing.T) *db.Database {
	t.Helper()
	d := db.New()
	if err := job.Load(d, job.Config{Scale: 0.05, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	return d
}

// tracer is what tracedQuery needs of a database or a session.
type tracer interface {
	QueryWithTrace(*sqlparse.Select) (*db.Result, *trace.Trace, error)
}

func tracedQuery(t *testing.T, d tracer, sql string, resultDB bool) (*db.Result, *trace.Trace) {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sel.ResultDB = resultDB
	res, tr, err := d.QueryWithTrace(sel)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if tr == nil {
		t.Fatal("QueryWithTrace returned a nil trace")
	}
	return res, tr
}

// TestTraceReducingOperatorsNeverGrow: scans (with pushed-down filters) and
// semi-joins only ever remove rows.
func TestTraceReducingOperatorsNeverGrow(t *testing.T) {
	d := loadJOBTrace(t)
	for _, q := range job.Queries() {
		_, tr := tracedQuery(t, d, q.SQL, true)
		for _, sp := range tr.Spans {
			switch sp.Op {
			case "scan", "semi-join":
				if sp.RowsOut > sp.RowsIn {
					t.Errorf("%s: %s %s grew its input: %d -> %d",
						q.Name, sp.Op, sp.Label, sp.RowsIn, sp.RowsOut)
				}
			}
		}
	}
}

// TestTraceOutputSpansMatchResultSets: the trace's output spans must report
// exactly the cardinalities and wire sizes of the result the caller got, and
// the rows-out counter must be their sum.
func TestTraceOutputSpansMatchResultSets(t *testing.T) {
	d := loadJOBTrace(t)
	for _, q := range job.Queries() {
		res, tr := tracedQuery(t, d, q.SQL, true)
		outputs := map[string]*trace.Span{}
		for i := range tr.Spans {
			if tr.Spans[i].Op == "output" {
				outputs[tr.Spans[i].Label] = &tr.Spans[i]
			}
		}
		if len(outputs) != len(res.Sets) {
			t.Fatalf("%s: %d output spans for %d result sets", q.Name, len(outputs), len(res.Sets))
		}
		total := 0
		for _, set := range res.Sets {
			sp, ok := outputs[set.Name]
			if !ok {
				t.Fatalf("%s: no output span for result set %q", q.Name, set.Name)
			}
			if sp.RowsOut != len(set.Rows) {
				t.Errorf("%s: output span %s rows %d, result set has %d",
					q.Name, set.Name, sp.RowsOut, len(set.Rows))
			}
			if sp.Bytes != set.WireSize() {
				t.Errorf("%s: output span %s bytes %d, result set wire size %d",
					q.Name, set.Name, sp.Bytes, set.WireSize())
			}
			total += len(set.Rows)
		}
		if int(tr.Counters.RowsOut) != total {
			t.Errorf("%s: rows-out counter %d, result total %d", q.Name, tr.Counters.RowsOut, total)
		}
	}
}

// TestTraceCountsIdenticalAcrossParallelism: the deterministic portion of the
// trace is bit-identical at parallelism 1 and 4, for both the RESULTDB and
// the single-table execution of every JOB template.
func TestTraceCountsIdenticalAcrossParallelism(t *testing.T) {
	d := loadJOBTrace(t)
	serial, parallel := d.NewSession(), d.NewSession()
	serial.CoreOptions.Parallelism, parallel.CoreOptions.Parallelism = 1, 4
	for _, resultDB := range []bool{true, false} {
		for _, q := range job.Queries() {
			_, tr1 := tracedQuery(t, serial, q.SQL, resultDB)
			_, tr4 := tracedQuery(t, parallel, q.SQL, resultDB)
			fp1, fp4 := tr1.CountsFingerprint(), tr4.CountsFingerprint()
			if fp1 != fp4 {
				t.Errorf("%s (resultdb=%v): trace counts differ between par 1 and par 4:\npar1:\n%s\npar4:\n%s",
					q.Name, resultDB, fp1, fp4)
			}
		}
	}
}

// TestTraceDoesNotChangeResults: running with the tracer attached returns the
// same subdatabase as running without it.
func TestTraceDoesNotChangeResults(t *testing.T) {
	d := loadJOBTrace(t)
	for _, name := range []string{"1b", "6a", "11c", "22c", "33c"} {
		q, err := job.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := sqlparse.ParseSelect(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		sel.ResultDB = true
		plain, err := d.Query(sel)
		if err != nil {
			t.Fatal(err)
		}
		traced, _, err := d.QueryWithTrace(sel)
		if err != nil {
			t.Fatal(err)
		}
		if len(plain.Sets) != len(traced.Sets) {
			t.Fatalf("%s: set counts differ: %d vs %d", name, len(plain.Sets), len(traced.Sets))
		}
		for i, set := range plain.Sets {
			other := traced.Sets[i]
			if set.Name != other.Name || len(set.Rows) != len(other.Rows) {
				t.Errorf("%s: set %d differs: %s/%d vs %s/%d",
					name, i, set.Name, len(set.Rows), other.Name, len(other.Rows))
			}
		}
	}
}
