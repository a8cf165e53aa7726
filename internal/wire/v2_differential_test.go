package wire

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/parallel"
	"resultdb/internal/workload/hierarchy"
	"resultdb/internal/workload/job"
	"resultdb/internal/workload/star"
)

// This file is the correctness gate of the columnar v2 wire format and the
// streamed transfer path: for every workload query, the payload a connection
// receives — at server parallelism 1 and 4 — must be the in-process v2
// encoding of what a local serial oracle computes, its decoding must be
// value-identical to that result (compared through the canonical v1
// encoding, which is injective on results), the v2 payload must never exceed
// the v1 payload of the same result, and what the decoder hands back must be
// a frame-backed result that re-encodes to the very same bytes. Any codec
// bug — a bitmap off by one, a dictionary code remapped wrong, a delta
// overflow, a chunk stitched out of order — shows up as a byte diff.

// wireCandidate is one served configuration under test.
type wireCandidate struct {
	name string
	conn *rawClient
}

// wireFleet loads the workload into a local oracle and into two served
// databases (parallelism 1 and 4), then connects to each.
func wireFleet(t *testing.T, load func(d *db.Database) error) (*db.Database, []wireCandidate) {
	t.Helper()
	oracle := db.Open(db.Config{Parallelism: 1})
	if err := load(oracle); err != nil {
		t.Fatal(err)
	}
	var cands []wireCandidate
	for _, par := range []int{1, 4} {
		d := db.Open(db.Config{Parallelism: par})
		if err := load(d); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(d)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cands = append(cands, wireCandidate{name: fmt.Sprintf("par%d", par), conn: dialRaw(t, addr)})
	}
	return oracle, cands
}

// checkWire runs sql on the oracle and across every served candidate,
// requiring value-identical results, v2 payloads no larger than v1, v2
// bytes that do not depend on whether the encoder read a set's typed view or
// its rows made a set by db.NewResultSet (exact values), and the server's
// unboxed form encoding like the boxed one.
func checkWire(t *testing.T, oracle *db.Database, cands []wireCandidate, name, sql string) {
	t.Helper()
	res, err := oracle.Exec(sql)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	checkServerForm(t, oracle, name, sql, res)
	want := EncodeResult(res)
	v2 := EncodeResultV2(res)
	if len(v2) > len(want) {
		t.Errorf("%s: v2 payload %d bytes > v1 payload %d bytes", name, len(v2), len(want))
	}
	rowsOnly := &db.Result{PostJoinPlan: res.PostJoinPlan, Stats: res.Stats}
	for _, set := range res.Sets {
		if set.Vec == nil {
			t.Errorf("%s: set %q left the engine without its columnar view", name, set.Name)
		}
		rowsOnly.Sets = append(rowsOnly.Sets, db.NewResultSet(set.Name, set.Columns, set.Rows))
	}
	if !bytes.Equal(EncodeResultV2(rowsOnly), v2) {
		t.Errorf("%s: v2 payload encoded from the views differs from the one encoded from the rows", name)
	}
	decoded, err := DecodeResult(v2)
	if err != nil {
		t.Fatalf("%s: v2 payload does not decode: %v", name, err)
	}
	checkDecodedV2(t, name, v2, decoded)
	for _, cand := range cands {
		what := name + " [" + cand.name + "]"
		payload := cand.conn.mustExec(t, what, sql)
		if !bytes.Equal(payload, v2) {
			t.Fatalf("%s: payload received over the wire differs from the in-process v2 encoding\nsql: %s", what, sql)
		}
		got, err := DecodeResultExpect(payload, FormatV2)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !bytes.Equal(EncodeResult(got), want) {
			t.Fatalf("%s: result decoded from the wire differs from the local oracle\nsql: %s", what, sql)
		}
		checkDecodedV2(t, what, v2, got)
	}
}

// serverResult runs sql the way the server does (Session.ExecUnboxed): the
// result as it leaves the engine.
func serverResult(d *db.Database, sql string) (*db.Result, error) {
	res, _, err := d.NewSession().ExecUnboxed(sql)
	return res, err
}

// streamedPayload is the concatenation of the chunks the server sends for
// res (writeResult): the header, one chunk per set, the plan.
func streamedPayload(res *db.Result) []byte {
	var resp response
	writeResult(&resp, res, parallel.NewRun(0))
	return chunkPayload(resp.buf)
}

// chunkPayload is the concatenation of the chunk payloads at the start of
// stream, up to its end or to its first frame of another type. A frame
// that does not check panics.
func chunkPayload(stream []byte) []byte {
	var out []byte
	for r := bytes.NewReader(stream); r.Len() > 0; {
		typ, chunk, err := readFrame(r)
		if err != nil {
			panic(err)
		}
		if typ != frameChunk {
			break
		}
		out = append(out, chunk...)
	}
	return out
}

// checkServerForm: the result the server ships (unboxed: every set is its
// view, Rows nil) and the one an in-process caller gets (boxed) are one
// representation — {boxed, unboxed} x {v1, v2} encode to the same bytes, in
// one buffer and, for v2, chunk by chunk as the server streams them — and
// each unboxed set's Section 6.1 size, summed from its columns, equals the
// size of its boxed rows.
func checkServerForm(t *testing.T, d *db.Database, name, sql string, boxed *db.Result) {
	t.Helper()
	unboxed, err := serverResult(d, sql)
	if err != nil {
		t.Fatalf("%s: server path: %v", name, err)
	}
	if len(unboxed.Sets) != len(boxed.Sets) {
		t.Fatalf("%s: server path gives %d sets, in-process %d", name, len(unboxed.Sets), len(boxed.Sets))
	}
	for i, set := range unboxed.Sets {
		if set.Rows != nil || set.Vec == nil {
			t.Fatalf("%s: server set %q left the engine boxed (rows %v, view %v)", name, set.Name, set.Rows != nil, set.Vec != nil)
		}
		rows := db.NewResultSet(set.Name, set.Columns, boxed.Sets[i].Rows)
		if set.NumRows() != rows.NumRows() || set.WireSize() != rows.WireSize() {
			t.Fatalf("%s: set %q: view counts %d rows / %d bytes, its rows %d / %d",
				name, set.Name, set.NumRows(), set.WireSize(), rows.NumRows(), rows.WireSize())
		}
	}
	for _, version := range []int{FormatV1, FormatV2} {
		want := EncodeResultOptions(boxed, EncodeOptions{Version: version})
		for form, r := range map[string]*db.Result{"boxed": boxed, "unboxed": unboxed} {
			if got := EncodeResultOptions(r, EncodeOptions{Version: version}); !bytes.Equal(got, want) {
				t.Fatalf("%s: %s result, version %d: %d bytes differ from the boxed result's %d", name, form, version, len(got), len(want))
			}
			if version != FormatV2 {
				continue
			}
			if got := streamedPayload(r); !bytes.Equal(got, want) {
				t.Fatalf("%s: %s result, streamed: %d bytes differ from the boxed result's %d", name, form, len(got), len(want))
			}
		}
	}
}

// checkDecodedV2 asserts what holds for every result decoded from the v2
// payload: each set carries its columnar view, the view boxes to exactly the
// set's rows, and re-encoding the decoded result — which now reads the views
// — reproduces the payload byte for byte.
func checkDecodedV2(t testing.TB, what string, payload []byte, res *db.Result) {
	t.Helper()
	for _, set := range res.Sets {
		if set.Vec == nil {
			t.Fatalf("%s: decoded set %q carries no columnar view", what, set.Name)
		}
		if set.Vec.Frame.NumCols() != len(set.Columns) {
			t.Fatalf("%s: set %q: view has %d columns, set has %d", what, set.Name, set.Vec.Frame.NumCols(), len(set.Columns))
		}
		boxed := set.Vec.Rows()
		if len(boxed) != len(set.Rows) {
			t.Fatalf("%s: set %q: view boxes %d rows, set has %d", what, set.Name, len(boxed), len(set.Rows))
		}
		for i, row := range set.Rows {
			for c := range row {
				if boxed[i][c] != row[c] {
					t.Fatalf("%s: set %q cell (%d,%d): view has %v (%s), rows have %v (%s)", what, set.Name, i, c,
						boxed[i][c], boxed[i][c].Kind(), row[c], row[c].Kind())
				}
			}
		}
	}
	if again := EncodeResultV2(res); !bytes.Equal(again, payload) {
		t.Fatalf("%s: re-encoding the decoded result gives %d bytes that differ from the %d-byte payload", what, len(again), len(payload))
	}
}

func TestWireV2DifferentialJOB(t *testing.T) {
	oracle, cands := wireFleet(t, func(d *db.Database) error {
		return job.Load(d, job.Config{Scale: 0.05, Seed: 42})
	})
	for _, q := range job.Queries() {
		sql := "SELECT RESULTDB" + strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT")
		checkWire(t, oracle, cands, q.Name+"/rdb", sql)
	}
	for _, name := range job.Table1Queries {
		q, err := job.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		trimmed := strings.TrimSpace(q.SQL)
		rp := "SELECT RESULTDB PRESERVING" + strings.TrimPrefix(trimmed, "SELECT")
		checkWire(t, oracle, cands, name+"/rdbrp", rp)
		checkWire(t, oracle, cands, name+"/st", trimmed)
	}
}

func TestWireV2DifferentialStar(t *testing.T) {
	cfg := star.Config{Dims: 3, DimRows: 12, PayloadLen: 16, Seed: 7}
	oracle, cands := wireFleet(t, func(d *db.Database) error {
		return star.Load(d, cfg)
	})
	for _, sel := range []float64{0.2, 0.6, 1.0} {
		st := star.Query(cfg, sel)
		rdb := "SELECT RESULTDB" + strings.TrimPrefix(strings.TrimSpace(star.PayloadQuery(cfg, sel)), "SELECT")
		checkWire(t, oracle, cands, fmt.Sprintf("star-%.1f/st", sel), st)
		checkWire(t, oracle, cands, fmt.Sprintf("star-%.1f/rdb", sel), rdb)
	}
}

func TestWireV2DifferentialHierarchy(t *testing.T) {
	oracle, cands := wireFleet(t, func(d *db.Database) error {
		return hierarchy.Load(d, hierarchy.DefaultConfig())
	})
	checkWire(t, oracle, cands, "hier/outer", strings.TrimSpace(hierarchy.OuterJoinQuery))
	checkWire(t, oracle, cands, "hier/rdb-electronics", strings.TrimSpace(hierarchy.ResultDBElectronics))
	checkWire(t, oracle, cands, "hier/rdb-clothing", strings.TrimSpace(hierarchy.ResultDBClothing))
}
