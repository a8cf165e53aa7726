package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"resultdb/internal/db"
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

	// Client side: readFrame is what wire.Client reads a hostile server's
	// response with. 100 KiB arrive, then the stream ends.
	var hdr [5]byte
	hdr[0] = frameChunk
	binary.BigEndian.PutUint32(hdr[1:], claimed)
	stream := io.MultiReader(bytes.NewReader(hdr[:]), bytes.NewReader(make([]byte, 100<<10)))
	grew = allocatedDuring(func() {
		if _, _, err := readFrame(stream); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncated frame: got %v, want io.ErrUnexpectedEOF", err)
		}
	})
	if grew > ceiling {
		t.Fatalf("readFrame allocated %d KiB for 100 KiB of a frame claiming %d MiB", grew>>10, claimed>>20)
	}

	// A frame that keeps its promise still arrives whole, across several
	// growth steps and with its checksum intact.
	payload := bytes.Repeat([]byte("0123456789abcdef"), (5*payloadReadStep+4096)/16)
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameChunk, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := readFrame(&buf)
	if err != nil || typ != frameChunk || !bytes.Equal(got, payload) {
		t.Fatalf("large frame round trip: type %d, %d bytes, %v", typ, len(got), err)
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
