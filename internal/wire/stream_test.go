package wire

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"resultdb/internal/db"
)

func streamTestDB(t *testing.T) *db.Database {
	t.Helper()
	d := db.New()
	if _, err := d.ExecScript(`
CREATE TABLE cust (id INT PRIMARY KEY, name TEXT, tier TEXT);
CREATE TABLE ord (id INT PRIMARY KEY, cust_id INT, total FLOAT);
INSERT INTO cust VALUES (1, 'Ann', 'gold'), (2, 'Bob', 'gold'), (3, 'Cay', 'base');
INSERT INTO ord VALUES (10, 1, 9.5), (11, 1, 20.25), (12, 2, 3.0);`); err != nil {
		t.Fatal(err)
	}
	return d
}

const streamTestQuery = "SELECT RESULTDB c.name, o.total FROM cust AS c, ord AS o WHERE c.id = o.cust_id"

// TestHelloNegotiationDefaults: with nothing to negotiate, a connection's
// first frame is its query, the answer is a v2 chunk stream, and a default
// Dial decodes it — a post-join plan included, which travels as its own
// chunk.
func TestHelloNegotiationDefaults(t *testing.T) {
	srv := NewServer(streamTestDB(t))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	raw := dialRaw(t, addr)
	if v, err := PayloadVersion(raw.mustExec(t, "raw", streamTestQuery)); err != nil || v != FormatV2 {
		t.Errorf("first query on a bare connection drew payload version %d (%v), want %d", v, err, FormatV2)
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Exec(streamTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 2 {
		t.Fatalf("want 2 result sets, got %d", len(res.Sets))
	}
	rp, err := c.Exec(strings.Replace(streamTestQuery, "RESULTDB", "RESULTDB PRESERVING", 1))
	if err != nil {
		t.Fatal(err)
	}
	if rp.PostJoinPlan == nil {
		t.Error("post-join plan lost over the streamed v2 path")
	}
}

// TestStreamedMatchesBuffered locks the core transfer invariant: the chunk
// stream a connection receives concatenates to exactly the v2 payload an
// in-process encode of the same result buffers whole — a post-join plan
// included, which travels as its own chunk — and the client decodes it to
// the result the database computes.
func TestStreamedMatchesBuffered(t *testing.T) {
	d := streamTestDB(t)
	srv := NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	raw := dialRaw(t, addr)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	preserving := strings.Replace(streamTestQuery, "RESULTDB", "RESULTDB PRESERVING", 1)
	for _, sql := range []string{streamTestQuery, preserving} {
		res, err := d.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Sets) != 2 || (sql == preserving) != (res.PostJoinPlan != nil) {
			t.Fatalf("%s: %d sets, plan %v", sql, len(res.Sets), res.PostJoinPlan != nil)
		}
		want := EncodeResultOptions(res, EncodeOptions{Version: FormatV2})
		if got := raw.mustExec(t, "raw", sql); !bytes.Equal(got, want) {
			t.Errorf("%s: streamed payload (%d bytes) differs from the in-process v2 encoding (%d bytes)", sql, len(got), len(want))
		}
		before := c.BytesRead()
		got, err := c.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		if n := c.BytesRead() - before; n != len(want) {
			t.Errorf("%s: client read %d payload bytes, the encoding has %d", sql, n, len(want))
		}
		if !bytes.Equal(EncodeResult(got), EncodeResult(res)) {
			t.Errorf("%s: client decoded a different result than the database computed", sql)
		}
	}
}

// TestStreamedConnectionSurvivesErrors: a failed statement over a streamed
// connection reports its error and leaves the connection usable.
func TestStreamedConnectionSurvivesErrors(t *testing.T) {
	srv := NewServer(streamTestDB(t))
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
	if _, err := c.Exec("SELECT nope FROM nowhere AS n"); err == nil {
		t.Fatal("bad query did not error")
	}
	if _, err := c.Exec(streamTestQuery); err != nil {
		t.Fatalf("connection unusable after a query error: %v", err)
	}
}

// TestDMLOverStreamedConnection: non-SELECT statements run over a streamed
// connection (the server replays their result through the chunk protocol).
func TestDMLOverStreamedConnection(t *testing.T) {
	srv := NewServer(streamTestDB(t))
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
	// (Affected counts are not part of the wire format, in v1 or v2 — only
	// the statement's success and its result sets travel.)
	if _, err := c.Exec("INSERT INTO cust VALUES (4, 'Dee', 'base')"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Exec("SELECT c.name FROM cust AS c WHERE c.id = 4")
	if err != nil {
		t.Fatal(err)
	}
	if got.First().NumRows() != 1 || got.First().Rows[0][0].Text() != "Dee" {
		t.Fatalf("inserted row not visible over streaming: %+v", got.First())
	}
}

// fakeServer accepts one connection, reads its query frame and hands the
// connection to answer, which writes whatever frames the test needs.
func fakeServer(t *testing.T, answer func(conn net.Conn)) string {
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
		if typ, _, err := readFrame(conn); err != nil || typ != frameQuery {
			return
		}
		answer(conn)
	}()
	return ln.Addr().String()
}

// TestClientAbandonsStreamOnMidStreamError drives the client against a
// hand-rolled server that sends a chunk and then aborts with frameErr — the
// partial buffer must be discarded and the error surfaced.
func TestClientAbandonsStreamOnMidStreamError(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		e := NewEncoder()
		e.encodeHeader(FormatV2, 1, false)
		writeFrame(conn, frameChunk, e.Bytes())
		writeFrame(conn, frameErr, []byte("executor died mid-stream"))
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("SELECT whatever")
	if err == nil || !strings.Contains(err.Error(), "mid-stream") {
		t.Fatalf("want the server's mid-stream error, got %v", err)
	}
}

// TestClientRejectsDowngradedPayload: a server that ships a v1 payload where
// every response is v2 is caught by DecodeResultExpect.
func TestClientRejectsDowngradedPayload(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		writeFrame(conn, frameChunk, EncodeResult(&db.Result{}))
		writeFrame(conn, frameEnd, nil)
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("SELECT whatever")
	if !IsCorrupt(err) || !strings.Contains(err.Error(), "where version 3 was expected") {
		t.Fatalf("want a corrupt-payload version-mismatch error, got %v", err)
	}
}
