package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"strings"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/types"
	"resultdb/internal/workload/job"
)

// jobRDB is JOB query name as a SELECT RESULTDB statement.
func jobRDB(t testing.TB, name string) string {
	t.Helper()
	q, err := job.QueryByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return "SELECT RESULTDB" + strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT")
}

// TestResultsOutliveTheClientsBuffers: a Client reads every response into
// one receive buffer and inflates into one scratch, both kept across
// exchanges, so a decoded result must hold copies of what it needs. A
// result kept across a larger and a smaller response still re-encodes to
// the payload the server sent for it, and each one-column set's rows are
// its view's values.
func TestResultsOutliveTheClientsBuffers(t *testing.T) {
	d := db.New()
	if err := job.Load(d, job.Config{Scale: 0.1, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var sent, got bytes.Buffer
	c, err := DialOptions(addr, Options{Dial: func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		return recordingConn{Conn: conn, out: &sent, in: &got}, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	exec := func(sql string) (*db.Result, []byte) {
		t.Helper()
		got.Reset()
		res, err := c.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		return res, chunkPayload(got.Bytes())
	}

	kept, payload := exec(jobRDB(t, "16b"))
	if len(kept.Sets) < 2 {
		t.Fatalf("16b gave %d sets, want several", len(kept.Sets))
	}
	_, small := exec(jobRDB(t, "3c"))
	_, large := exec("SELECT mk.keyword_id, t.title, t.production_year FROM movie_keyword AS mk, title AS t WHERE mk.movie_id = t.id")
	exec(jobRDB(t, "3c"))
	if len(small) >= len(payload) || len(large) <= len(payload) {
		t.Fatalf("payloads of %d, %d and %d bytes: want one smaller and one larger than 16b's", len(payload), len(small), len(large))
	}
	if !bytes.Equal(EncodeResultV2(kept), payload) {
		t.Fatal("a result kept across later exchanges no longer re-encodes to the payload sent for it")
	}
	for _, set := range kept.Sets {
		if len(set.Columns) != 1 {
			continue
		}
		col := set.Column(0)
		if len(set.Rows) != set.NumRows() {
			t.Fatalf("set %s: %d rows, its view has %d", set.Name, len(set.Rows), set.NumRows())
		}
		for i, row := range set.Rows {
			if len(row) != 1 || !types.Equal(row[0], col.At(i)) || row[0].Kind() != col.At(i).Kind() {
				t.Fatalf("set %s row %d is %v, its view holds %v", set.Name, i, row, col.At(i))
			}
		}
	}
}

// replayServer answers the i-th query on its one connection with
// responses[i%len(responses)], written whole, and allocates nothing per
// query: what a process-wide allocation count sees during an exchange is
// then the client's.
func replayServer(t *testing.T, responses [][]byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var hdr [5]byte
		query := make([]byte, 64<<10)
		for i := 0; ; i++ {
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				return
			}
			n := int(binary.BigEndian.Uint32(hdr[1:])) + 4
			if n > len(query) {
				return
			}
			if _, err := io.ReadFull(conn, query[:n]); err != nil {
				return
			}
			if _, err := conn.Write(responses[i%len(responses)]); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestClientExchangeAddsNoAllocation: a warmed Client.Exec of each of the
// 33 JOB RESULTDB statements, answered with the bytes the server sends for
// them, allocates no more than decoding the same payloads with a kept
// inflate scratch does: the exchange — the query frame, reading, checking
// and joining the frames — adds no bytes of its own.
func TestClientExchangeAddsNoAllocation(t *testing.T) {
	d := db.New()
	if err := job.Load(d, job.Config{Scale: 0.1, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	sess := d.NewSession()
	var stmts []string
	var responses, payloads [][]byte
	for _, q := range job.Queries() {
		sql := jobRDB(t, q.Name)
		res, err := sess.ExecUnboxed(sql)
		if err != nil {
			t.Fatal(err)
		}
		var r response
		writeResult(&r, res, 1)
		r.frame(frameEnd, nil)
		stmts = append(stmts, sql)
		responses = append(responses, r.buf)
		payloads = append(payloads, chunkPayload(r.buf))
	}
	c, err := Dial(replayServer(t, responses))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	exchange := func() {
		for _, sql := range stmts {
			if _, err := c.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	var scratch []byte
	decode := func() {
		for _, p := range payloads {
			d := Decoder{buf: p, inflated: scratch}
			if _, err := d.result(FormatV2); err != nil {
				t.Fatal(err)
			}
			scratch = d.inflated
		}
	}
	exchange() // warm: the client's buffers grown to the largest response
	decode()
	client, decoded := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 5 {
		client = min(client, allocatedBy(exchange))
		decoded = min(decoded, allocatedBy(decode))
	}
	if client > decoded {
		t.Errorf("exchanging the %d JOB statements allocated %d bytes, decoding their payloads %d", len(stmts), client, decoded)
	}
	t.Logf("%d statements: the exchanges allocate %d bytes, their decodes %d", len(stmts), client, decoded)
}
