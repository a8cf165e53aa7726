package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"resultdb/internal/db"
	"resultdb/internal/types"
)

func sampleResult() *db.Result {
	return &db.Result{Sets: []*db.ResultSet{
		{
			Name:    "c",
			Columns: []string{"name", "id"},
			Rows: []types.Row{
				{types.NewText("custA"), types.NewInt(0)},
				{types.NewText("it's"), types.NewInt(-7)},
				{types.Null(), types.NewInt(math.MaxInt64)},
			},
		},
		{
			Name:    "p",
			Columns: []string{"price", "ok"},
			Rows: []types.Row{
				{types.NewFloat(3.25), types.NewBool(true)},
				{types.NewFloat(math.Inf(1)), types.NewBool(false)},
			},
		},
		{Name: "empty", Columns: []string{"x"}},
	}}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := sampleResult()
	buf := EncodeResult(r)
	got, err := DecodeResult(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sets) != len(r.Sets) {
		t.Fatalf("sets = %d, want %d", len(got.Sets), len(r.Sets))
	}
	for i, set := range r.Sets {
		gs := got.Sets[i]
		if gs.Name != set.Name || strings.Join(gs.Columns, ",") != strings.Join(set.Columns, ",") {
			t.Errorf("set %d header mismatch: %+v", i, gs)
		}
		if len(gs.Rows) != len(set.Rows) {
			t.Fatalf("set %d rows = %d, want %d", i, len(gs.Rows), len(set.Rows))
		}
		for j := range set.Rows {
			if !gs.Rows[j].Equal(set.Rows[j]) {
				t.Errorf("set %d row %d = %v, want %v", i, j, gs.Rows[j], set.Rows[j])
			}
		}
	}
}

// randomValue draws any value kind for fuzz-style round-trip checks.
func randomValue(rng *rand.Rand) types.Value {
	switch rng.Intn(5) {
	case 0:
		return types.Null()
	case 1:
		return types.NewInt(rng.Int63() - rng.Int63())
	case 2:
		return types.NewFloat(rng.NormFloat64() * 1e6)
	case 3:
		n := rng.Intn(20)
		b := make([]byte, n)
		rng.Read(b)
		return types.NewText(string(b))
	default:
		return types.NewBool(rng.Intn(2) == 0)
	}
}

func TestEncodeDecodeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		nCols := 1 + rng.Intn(5)
		set := &db.ResultSet{Name: "s", Columns: make([]string, nCols)}
		for i := range set.Columns {
			set.Columns[i] = string(rune('a' + i))
		}
		for r := 0; r < rng.Intn(30); r++ {
			row := make(types.Row, nCols)
			for i := range row {
				row[i] = randomValue(rng)
			}
			set.Rows = append(set.Rows, row)
		}
		res := &db.Result{Sets: []*db.ResultSet{set}}
		got, err := DecodeResult(EncodeResult(res))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, row := range set.Rows {
			if !got.Sets[0].Rows[i].Equal(row) {
				t.Fatalf("trial %d row %d: %v != %v", trial, i, got.Sets[0].Rows[i], row)
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x01},
		[]byte("definitely not a result"),
		EncodeResult(sampleResult())[:10], // truncated
	}
	for i, buf := range cases {
		if _, err := DecodeResult(buf); err == nil {
			t.Errorf("case %d: garbage decoded successfully", i)
		}
	}
	// Trailing bytes rejected.
	buf := append(EncodeResult(sampleResult()), 0xFF)
	if _, err := DecodeResult(buf); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestTransferModel(t *testing.T) {
	m := TransferModel{Mbps: 100}
	// 100 Mbps = 12.5 MB/s; 12_500_000 bytes should take 1s.
	if d := m.Duration(12_500_000); d != time.Second {
		t.Errorf("Duration = %v, want 1s", d)
	}
	if d := m.Duration(0); d != 0 {
		t.Errorf("zero bytes = %v", d)
	}
	if d := (TransferModel{}).Duration(1 << 20); d != 0 {
		t.Errorf("zero rate should be free: %v", d)
	}
	// Monotone in bytes.
	if m.Duration(1000) >= m.Duration(2000) {
		t.Error("transfer time not monotone")
	}
	if DefaultTransfer.Mbps != 100 {
		t.Errorf("DefaultTransfer = %v, paper uses 100 Mbps", DefaultTransfer.Mbps)
	}
}

func TestServerClientEndToEnd(t *testing.T) {
	d := db.New()
	if _, err := d.ExecScript(`
		CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT);
		INSERT INTO t VALUES (1, 'a'), (2, 'b');
	`); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := c.Exec("SELECT t.name FROM t AS t WHERE t.id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 1 || res.First().NumRows() != 1 || res.First().Rows[0][0].Text() != "b" {
		t.Fatalf("result = %+v", res.First())
	}
	if c.BytesRead() == 0 {
		t.Error("BytesRead not accounted")
	}

	// Errors propagate as errors, connection stays usable.
	if _, err := c.Exec("SELECT nope FROM missing"); err == nil {
		t.Error("server error not propagated")
	}
	if _, err := c.Exec("SELECT t.id FROM t AS t"); err != nil {
		t.Errorf("connection unusable after error: %v", err)
	}

	// DDL/DML and RESULTDB over the wire.
	if _, err := c.Exec("INSERT INTO t VALUES (3, 'c')"); err != nil {
		t.Fatal(err)
	}
	res, err = c.Exec("SELECT RESULTDB t.name FROM t AS t WHERE t.id > 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 1 || res.Sets[0].NumRows() != 2 {
		t.Fatalf("resultdb over wire = %+v", res.Sets)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	d := db.New()
	if _, err := d.ExecScript(`
		CREATE TABLE t (id INTEGER PRIMARY KEY);
		INSERT INTO t VALUES (1), (2), (3);
	`); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 8
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			c, err := Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for q := 0; q < 20; q++ {
				res, err := c.Exec("SELECT COUNT(*) FROM t AS t")
				if err != nil {
					errc <- err
					return
				}
				if res.First().Rows[0][0].Int() != 3 {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestWriteReadFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameQuery, []byte("SELECT 1")); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 5+len("SELECT 1")+4 {
		t.Errorf("frame is %d bytes, want header + payload + 4-byte trailer", buf.Len())
	}
	typ, payload, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameQuery || string(payload) != "SELECT 1" {
		t.Errorf("frame = %d %q", typ, payload)
	}
	// Empty payloads round-trip too.
	if err := writeFrame(&buf, frameEnd, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = readFrame(&buf)
	if err != nil || typ != frameEnd || len(payload) != 0 {
		t.Errorf("empty frame = %d %q %v", typ, payload, err)
	}
}

func TestReadFrameRejectsOversizeAndTruncation(t *testing.T) {
	// Oversized length header.
	var hdr [5]byte
	hdr[0] = frameQuery
	binary.BigEndian.PutUint32(hdr[1:], maxFrame+1)
	if _, _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Error("oversize frame accepted")
	}
	// Truncated payload, and a frame cut inside its trailer.
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameQuery, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{7, 2} {
		trunc := buf.Bytes()[:buf.Len()-cut]
		if _, _, err := readFrame(bytes.NewReader(trunc)); err == nil {
			t.Errorf("frame missing its last %d bytes accepted", cut)
		}
	}
}

func TestServerRejectsUnknownFrameType(t *testing.T) {
	d := db.New()
	srv := NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The server answers from the header and hangs up without reading the
	// payload, so the frame goes out in one write: a frame written piecewise
	// could see its later pieces refused by the closed connection.
	var frame bytes.Buffer
	if err := writeFrame(&frame, 0x7F, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame.Bytes()); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameErr || !strings.Contains(string(payload), "unexpected frame type") {
		t.Errorf("response = %d %q", typ, payload)
	}
}

func TestServerCloseStopsAccepting(t *testing.T) {
	srv := NewServer(db.New())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(addr); err == nil {
		t.Error("dial after Close should fail")
	}
	// Double close is safe.
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestEncoderLenTracksBytes(t *testing.T) {
	e := NewEncoder()
	if e.Len() != 0 {
		t.Error("fresh encoder not empty")
	}
	e.Str("hello")
	if e.Len() != len(e.Bytes()) || e.Len() == 0 {
		t.Errorf("Len = %d, Bytes = %d", e.Len(), len(e.Bytes()))
	}
}

// TestQuickEncodeDecodeInts: any single-column integer result survives the
// wire round trip (testing/quick drives the values).
func TestQuickEncodeDecodeInts(t *testing.T) {
	f := func(vals []int64, name string) bool {
		set := &db.ResultSet{Name: name, Columns: []string{"v"}}
		for _, v := range vals {
			set.Rows = append(set.Rows, types.Row{types.NewInt(v)})
		}
		res := &db.Result{Sets: []*db.ResultSet{set}}
		got, err := DecodeResult(EncodeResult(res))
		if err != nil {
			return false
		}
		if got.Sets[0].Name != name || len(got.Sets[0].Rows) != len(vals) {
			return false
		}
		for i, v := range vals {
			if got.Sets[0].Rows[i][0].Int() != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
