package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"resultdb/internal/db"
	"resultdb/internal/storage"
	"resultdb/internal/types"
)

func hardenedTestDB(t *testing.T) *db.Database {
	t.Helper()
	d := db.New()
	if _, err := d.ExecScript(`
CREATE TABLE t (id INT PRIMARY KEY, name TEXT);
INSERT INTO t VALUES (1, 'a'), (2, 'b');`); err != nil {
		t.Fatal(err)
	}
	return d
}

// rawFrame writes a hand-rolled frame header (and optionally payload bytes)
// with no trailer: the start of a frame the server must refuse or wait out.
func rawFrame(t *testing.T, conn net.Conn, typ byte, length uint32, payload []byte) {
	t.Helper()
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], length)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if payload != nil {
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
}

// readRawFrame reads one frame off a raw connection, trailer checked.
func readRawFrame(t *testing.T, conn net.Conn) (byte, []byte) {
	t.Helper()
	typ, payload, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	return typ, payload
}

func TestServerOversizedFrameAnswersErrAndDrops(t *testing.T) {
	srv := NewServer(hardenedTestDB(t))
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
	// Claim a payload just over the limit; send no payload bytes — the
	// server must answer from the header alone.
	rawFrame(t, conn, frameQuery, maxFrame+1, nil)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload := readRawFrame(t, conn)
	if typ != frameErr {
		t.Fatalf("want frameErr, got type %d", typ)
	}
	if !strings.Contains(string(payload), "exceeds size limit") {
		t.Fatalf("unhelpful oversize error %q", payload)
	}
	// The connection must then be closed by the server.
	if _, err := io.ReadFull(conn, make([]byte, 1)); err == nil {
		t.Fatal("server kept a poisoned connection open")
	}
}

// allocatedDuring reports the bytes the process allocated while f ran.
func allocatedDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestClaimedFrameLengthDoesNotDriveAllocation: a frame header is five bytes
// from a peer nobody has authenticated, and its length field is only a
// claim. Neither side may allocate for bytes that have not arrived.
func TestClaimedFrameLengthDoesNotDriveAllocation(t *testing.T) {
	const claimed, ceiling = 512 << 20, 1 << 20

	// Server side: the header, a few payload bytes, then silence. The server
	// must hold kilobytes, not the claim, and reap the connection on its
	// read deadline.
	srv := NewServer(hardenedTestDB(t))
	srv.ReadTimeout = 150 * time.Millisecond
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
	grew := allocatedDuring(func() {
		rawFrame(t, conn, frameQuery, claimed, []byte("SELECT"))
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(conn, make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Fatalf("stalled connection was not reaped by the read deadline: %v", err)
		}
	})
	if grew > ceiling {
		t.Fatalf("server allocated %d KiB for a stalled frame claiming %d MiB", grew>>10, claimed>>20)
	}

	// The server reads a query that keeps its promise whole, across several
	// of readPayload's growth steps and with its checksum intact.
	payload := bytes.Repeat([]byte("0123456789abcdef"), (5*payloadReadStep+4096)/16)
	typ, got, err := readFrame(bytes.NewReader(appendFrame(nil, frameQuery, payload)))
	if err != nil || typ != frameQuery || !bytes.Equal(got, payload) {
		t.Fatalf("large frame round trip: type %d, %d bytes, %v", typ, len(got), err)
	}

	// Client side: a hostile server answers with a chunk header claiming
	// 1 GiB, sends 100 KiB of it and hangs up. The client's receive buffer
	// grows with the bytes that arrive, not with the claim, and the
	// exchange fails as a transport error.
	addr = fakeServer(t, func(conn net.Conn) {
		var hdr [5]byte
		hdr[0] = frameChunk
		binary.BigEndian.PutUint32(hdr[1:], 1<<30)
		conn.Write(hdr[:])
		conn.Write(make([]byte, 100<<10))
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	grew = allocatedDuring(func() {
		_, err = c.Exec("SELECT 1")
	})
	var xe *ExchangeError
	if !errors.As(err, &xe) || xe.Kind != KindRetryable || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated 1 GiB frame: got %v, want a retryable io.ErrUnexpectedEOF", err)
	}
	if grew > ceiling {
		t.Fatalf("the client allocated %d KiB for 100 KiB of a frame claiming 1 GiB", grew>>10)
	}

	// A response that keeps its promise arrives whole, its one chunk across
	// several of the receive buffer's growth steps.
	rows := make([]types.Row, 4000)
	for i := range rows {
		rows[i] = types.Row{types.NewText(fmt.Sprintf("%x", sha256.Sum256([]byte{byte(i), byte(i >> 8)})))}
	}
	v2 := EncodeResultV2(oneSet("big", []string{"body"}, rows))
	if len(v2) < 5*recvStep {
		t.Fatalf("the payload is %d bytes, the test needs %d", len(v2), 5*recvStep)
	}
	addr = fakeServer(t, func(conn net.Conn) {
		conn.Write(append(appendFrame(nil, frameChunk, v2), appendFrame(nil, frameEnd, nil)...))
	})
	if c, err = Dial(addr); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	back, err := c.Exec("SELECT 1")
	if err != nil || !bytes.Equal(EncodeResultV2(back), v2) {
		t.Fatalf("large response round trip: %v", err)
	}
}

func TestServerUnexpectedFrameTypeAnswersErr(t *testing.T) {
	srv := NewServer(hardenedTestDB(t))
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
	rawFrame(t, conn, frameChunk, 0, nil)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload := readRawFrame(t, conn)
	if typ != frameErr || !strings.Contains(string(payload), "unexpected frame type") {
		t.Fatalf("want unexpected-frame error, got type %d %q", typ, payload)
	}
}

// TestServerRejectsStaleHello: a client of the older protocol opens with a
// handshake frame (type 4: a uvarint version and flags) and no trailer, then
// waits for the answer. It gets a typed frameErr and a closed connection —
// with no read deadline to end a wait for a trailer that never comes.
func TestServerRejectsStaleHello(t *testing.T) {
	srv := NewServer(hardenedTestDB(t)) // ReadTimeout 0
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
	hello := []byte{FormatV2, 3} // version, streaming|integrity
	rawFrame(t, conn, 4, uint32(len(hello)), hello)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload := readRawFrame(t, conn)
	if typ != frameErr || !strings.Contains(string(payload), "unexpected frame type 4") {
		t.Fatalf("stale hello drew type %d %q, want frameErr naming the frame type", typ, payload)
	}
	// Closed, not timed out: EOF, or a reset if the hello's payload was
	// still unread when the server hung up.
	if _, err := io.ReadFull(conn, make([]byte, 1)); err == nil || isTimeout(err) {
		t.Fatalf("connection not closed after the stale hello: %v", err)
	}
}

func TestServerReadDeadlineReapsIdleConns(t *testing.T) {
	srv := NewServer(hardenedTestDB(t))
	srv.ReadTimeout = 100 * time.Millisecond
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
	// Send nothing; the server must hang up on its own.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, make([]byte, 1)); err == nil {
		t.Fatal("idle connection was not reaped")
	}

	// A busy connection survives many deadline windows.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if _, err := c.Exec("SELECT t.id FROM t AS t"); err != nil {
			t.Fatalf("busy connection dropped on exec %d: %v", i, err)
		}
		time.Sleep(30 * time.Millisecond)
	}
}

func TestServerMaxConnsLimitsConcurrency(t *testing.T) {
	srv := NewServer(hardenedTestDB(t))
	srv.MaxConns = 2
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Two established, executing connections occupy both slots.
	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Client{c1, c2} {
		if _, err := c.Exec("SELECT t.id FROM t AS t"); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.ActiveConns(); got != 2 {
		t.Fatalf("want 2 active conns, got %d", got)
	}

	// A third dial succeeds at TCP level (kernel backlog) but is not served
	// until a slot frees.
	c3, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c3.Exec("SELECT t.id FROM t AS t")
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("third connection served beyond MaxConns (err=%v)", err)
	case <-time.After(150 * time.Millisecond):
	}
	c1.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("third connection failed after slot freed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("third connection never served after slot freed")
	}
	c2.Close()
}

func TestClientConcurrentExec(t *testing.T) {
	srv := NewServer(hardenedTestDB(t))
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

	const n = 8
	const reps = 25
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				res, err := c.Exec("SELECT t.name FROM t AS t WHERE t.id = 2")
				if err != nil {
					t.Errorf("concurrent exec: %v", err)
					return
				}
				if res.First().NumRows() != 1 || res.First().Rows[0][0].Text() != "b" {
					t.Errorf("interleaved response: %+v", res.First())
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.BytesRead() == 0 {
		t.Error("BytesRead not accounted")
	}
}

// TestServerCountsExecutorPanics: a statement whose execution panics is
// answered with a frameErr, counted in Stats().Panics, and leaves its
// connection serving the next statement. The panic is made by a table whose
// statistics slot holds a value of the wrong type, so that stats.Of's type
// assertion fails while the join is planned.
func TestServerCountsExecutorPanics(t *testing.T) {
	d := hardenedTestDB(t)
	if _, err := d.ExecScript(`
CREATE TABLE u (id INT PRIMARY KEY, tid INT);
INSERT INTO u VALUES (10, 1), (20, 2);`); err != nil {
		t.Fatal(err)
	}
	tab, err := d.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	tab.Stats(func(*storage.Table, any) any { return "not statistics" })
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
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	// exec sends sql and returns the type and payload of the frame that
	// ends the response, skipping the chunks before it.
	exec := func(sql string) (byte, []byte) {
		if _, err := conn.Write(appendFrame(nil, frameQuery, []byte(sql))); err != nil {
			t.Fatal(err)
		}
		for {
			typ, payload := readRawFrame(t, conn)
			if typ != frameChunk {
				return typ, payload
			}
		}
	}
	typ, payload := exec("SELECT t.name, u.id FROM t AS t, u AS u WHERE t.id = u.tid")
	if typ != frameErr || !strings.Contains(string(payload), "internal error") {
		t.Fatalf("a panicking statement was answered with frame type %d %q, want a frameErr naming an internal error", typ, payload)
	}
	if got := srv.Stats().Panics; got != 1 {
		t.Fatalf("Stats().Panics = %d after one executor panic, want 1", got)
	}
	if typ, payload := exec("SELECT u.id FROM u AS u WHERE u.tid = 2"); typ != frameEnd {
		t.Fatalf("the next statement on the connection was answered with frame type %d %q, want frameEnd", typ, payload)
	}
}
