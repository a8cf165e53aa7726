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

func TestHelloNegotiationDefaults(t *testing.T) {
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
	if v := c.Version(); v != FormatV2 {
		t.Errorf("default Dial negotiated version %d, want %d", v, FormatV2)
	}
	if !c.Streaming() {
		t.Error("default Dial did not negotiate streaming")
	}
	res, err := c.Exec(streamTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 2 {
		t.Fatalf("want 2 result sets, got %d", len(res.Sets))
	}
	// PRESERVING results ship a post-join plan; it must survive the
	// streamed v2 path (the plan travels as its own chunk).
	rp, err := c.Exec("SELECT RESULTDB PRESERVING c.name, o.total FROM cust AS c, ord AS o WHERE c.id = o.cust_id")
	if err != nil {
		t.Fatal(err)
	}
	if rp.PostJoinPlan == nil {
		t.Error("post-join plan lost over the streamed v2 path")
	}
}

func TestHelloNegotiationPinnedV1(t *testing.T) {
	srv := NewServer(streamTestDB(t))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialOptions(addr, Options{Version: FormatV1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v := c.Version(); v != FormatV1 {
		t.Errorf("pinned v1 negotiation yielded %d", v)
	}
	if c.Streaming() {
		t.Error("streaming granted without being requested")
	}
	if _, err := c.Exec(streamTestQuery); err != nil {
		t.Fatal(err)
	}
}

func TestServerMaxVersionClampsNegotiation(t *testing.T) {
	srv := NewServer(streamTestDB(t))
	srv.MaxVersion = FormatV1
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr) // requests v2+streaming
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v := c.Version(); v != FormatV1 {
		t.Errorf("MaxVersion=v1 server negotiated %d", v)
	}
	if !c.Streaming() {
		t.Error("streaming should be independent of the payload version clamp")
	}
	if _, err := c.Exec(streamTestQuery); err != nil {
		t.Fatal(err)
	}
}

// TestStreamedMatchesBuffered locks the core transfer invariant: the same
// query over a legacy connection, a buffered v2 connection, and a streamed
// v2 connection produces value-identical results.
func TestStreamedMatchesBuffered(t *testing.T) {
	srv := NewServer(streamTestDB(t))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var canon [][]byte
	for _, opts := range []Options{
		{Legacy: true},
		{Version: FormatV2},
		{Version: FormatV2, Streaming: true},
		{Version: FormatV1, Streaming: true},
	} {
		c, err := DialOptions(addr, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Exec(streamTestQuery)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if c.BytesRead() == 0 {
			t.Errorf("opts %+v: BytesRead not accounted", opts)
		}
		canon = append(canon, EncodeResult(res))
		c.Close()
	}
	for i := 1; i < len(canon); i++ {
		if !bytes.Equal(canon[0], canon[i]) {
			t.Errorf("connection flavor %d decoded a different result than legacy", i)
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

// TestClientAbandonsStreamOnMidStreamError drives the client against a
// hand-rolled server that sends a chunk and then aborts with frameErr — the
// partial buffer must be discarded and the error surfaced.
func TestClientAbandonsStreamOnMidStreamError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Hello exchange.
		typ, payload, err := readFrame(conn, false)
		if err != nil || typ != frameHello {
			return
		}
		v, _, err := decodeHello(payload)
		if err != nil {
			return
		}
		writeFrame(conn, frameHello, encodeHello(v, helloStreaming), false)
		// Query: answer with one chunk, then die mid-stream.
		if typ, _, err = readFrame(conn, false); err != nil || typ != frameQuery {
			return
		}
		e := NewEncoder()
		e.encodeHeader(FormatV2, 1, false)
		writeFrame(conn, frameChunk, e.Bytes(), false)
		writeFrame(conn, frameErr, []byte("executor died mid-stream"), false)
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("SELECT whatever")
	if err == nil || !strings.Contains(err.Error(), "mid-stream") {
		t.Fatalf("want the server's mid-stream error, got %v", err)
	}
}

// TestClientRejectsDowngradedPayload: a server that negotiates v2 but ships
// a v1 payload is caught by DecodeResultExpect.
func TestClientRejectsDowngradedPayload(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		typ, payload, err := readFrame(conn, false)
		if err != nil || typ != frameHello {
			return
		}
		v, _, err := decodeHello(payload)
		if err != nil {
			return
		}
		writeFrame(conn, frameHello, encodeHello(v, 0), false)
		if typ, _, err = readFrame(conn, false); err != nil || typ != frameQuery {
			return
		}
		// Negotiated v2, but ship v1 bytes.
		writeFrame(conn, frameOK, EncodeResult(&db.Result{}), false)
	}()

	c, err := DialOptions(ln.Addr().String(), Options{Version: FormatV2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("SELECT whatever")
	if err == nil || !strings.Contains(err.Error(), "negotiated") {
		t.Fatalf("want a version-mismatch error, got %v", err)
	}
}

// TestServerRejectsMalformedHello: a broken hello draws frameErr and a
// dropped connection.
func TestServerRejectsMalformedHello(t *testing.T) {
	srv := NewServer(streamTestDB(t))
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
	if err := writeFrame(conn, frameHello, []byte{0x80}, false); err != nil { // truncated uvarint
		t.Fatal(err)
	}
	typ, _, err := readFrame(conn, false)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameErr {
		t.Fatalf("malformed hello drew frame type %d, want frameErr", typ)
	}
}
