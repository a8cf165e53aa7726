package wire

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"resultdb/internal/db"
	"resultdb/internal/faultnet"
)

// The chaos differential gate: a retrying client driven through every
// faultnet failure mode, against servers at two degrees of parallelism, must
// return either the byte-exact oracle result or a typed *ExchangeError —
// never a silent partial or corrupt result, and never a hang.

func chaosDB(t testing.TB) *db.Database { return chaosDBPar(t, 0) }

// chaosDBPar is chaosDB at an explicit parallelism degree (0 = auto).
func chaosDBPar(t testing.TB, par int) *db.Database {
	t.Helper()
	d := db.Open(db.Config{Parallelism: par})
	script := `
CREATE TABLE cust (id INT PRIMARY KEY, name TEXT, tier TEXT);
CREATE TABLE ord (id INT PRIMARY KEY, cust_id INT, total FLOAT);
INSERT INTO cust VALUES (1, 'Ann', 'gold'), (2, 'Bob', 'gold'), (3, 'Cay', 'base'), (4, 'Dee', 'base');`
	if _, err := d.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	// Enough order rows that responses span many kilobytes: mid-response
	// faults must land inside the transfer, not after it.
	var b strings.Builder
	for i := 0; i < 1200; i++ {
		if i%100 == 0 {
			if i > 0 {
				b.WriteString(";\n")
			}
			b.WriteString("INSERT INTO ord VALUES ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d.5)", 100+i, i%4+1, i)
	}
	b.WriteString(";")
	if _, err := d.ExecScript(b.String()); err != nil {
		t.Fatal(err)
	}
	return d
}

// chaosQuery projects o.id too, keeping the ord relation's rows unique: the
// response then spans several kilobytes, so mid-response fault offsets land
// inside the transfer instead of beyond it.
const chaosQuery = "SELECT RESULTDB c.name, c.tier, o.id, o.total FROM cust AS c, ord AS o WHERE c.id = o.cust_id AND o.total > 10"

// canonical encodes a result in the in-process v1 codec at a fixed
// parallelism, giving the byte-exact comparison key the gate checks client
// results against.
func canonical(res *db.Result) []byte {
	return EncodeResultOptions(res, EncodeOptions{Version: FormatV1, Parallelism: 1})
}

// chaosRetry is a fast, deterministic retry policy for fault sweeps: real
// backoff sleeps would dominate the gate's runtime, fake-clock precision is
// covered by the retry unit tests.
func chaosRetry(attempts int) RetryPolicy {
	return RetryPolicy{
		MaxAttempts:    attempts,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     5 * time.Millisecond,
		Jitter:         -1,
		ConnectTimeout: 5 * time.Second,
		AttemptTimeout: 10 * time.Second,
		QueryTimeout:   60 * time.Second,
		Seed:           1,
	}
}

// chaosExchange measures one clean exchange of chaosQuery with the server at
// addr: the bytes the client sends (its query frame) and receives (the
// response frames). Fault offsets are placed from these, so they land where
// they are meant to whatever the response's encoding weighs.
func chaosExchange(t *testing.T, addr string) (sent, received int64) {
	t.Helper()
	var out, in bytes.Buffer
	c, err := DialOptions(addr, Options{
		Retry: RetryPolicy{MaxAttempts: 1, Seed: 1},
		Dial: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			return recordingConn{Conn: conn, out: &out, in: &in}, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(chaosQuery); err != nil {
		t.Fatal(err)
	}
	return int64(out.Len()), int64(in.Len())
}

// chaosFaults is the client-side fault matrix for an exchange that sends
// `sent` bytes and receives `received`: every action at offsets hitting the
// query frame's header, its payload and its trailer, and Drop and Stall at
// the start and the middle of the response. (A client only writes its query
// frame, in one write, so Truncate, Corrupt and Reset cannot reach the
// response from this side: TestChaosServerSideFaults covers that direction.)
func chaosFaults(sent, received int64) []faultnet.Fault {
	mid := sent + received/2
	return []faultnet.Fault{
		{Action: faultnet.Refuse},
		{Action: faultnet.Drop, Offset: 0},
		{Action: faultnet.Drop, Offset: 3},
		{Action: faultnet.Drop, Offset: sent / 2},
		{Action: faultnet.Drop, Offset: sent},
		{Action: faultnet.Drop, Offset: mid},
		{Action: faultnet.Stall, Offset: 0, Delay: 5 * time.Millisecond},
		{Action: faultnet.Stall, Offset: sent, Delay: 10 * time.Millisecond},
		{Action: faultnet.Truncate, Offset: 2},
		{Action: faultnet.Truncate, Offset: 9},
		{Action: faultnet.Truncate, Offset: sent - 1},
		{Action: faultnet.Corrupt, Offset: 1},
		{Action: faultnet.Corrupt, Offset: 8},
		{Action: faultnet.Corrupt, Offset: sent / 2},
		{Action: faultnet.Corrupt, Offset: sent - 1},
		{Action: faultnet.Reset, Offset: 0},
	}
}

// checkFired fails the test when the single fault f left no trace on an
// exchange that succeeded: a fault on the data path must have cost the client
// a connection (reconnects), and a stall its delay (elapsed). A fault that
// fires nowhere tests nothing.
func checkFired(t *testing.T, f faultnet.Fault, reconnects int, elapsed time.Duration) {
	t.Helper()
	if f.Action == faultnet.Stall {
		if elapsed < f.Delay {
			t.Errorf("fault %v never fired: the exchange took %v", f, elapsed)
		}
		return
	}
	if reconnects < 1 {
		t.Errorf("fault %v never fired: the exchange succeeded without a reconnect", f)
	}
}

func TestChaosDifferentialGate(t *testing.T) {
	d := chaosDB(t)
	oracleRes, err := d.Exec(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	oracle := canonical(oracleRes)
	if len(oracle) == 0 {
		t.Fatal("empty oracle encoding")
	}

	for _, par := range []int{1, 4} {
		par := par
		t.Run(fmt.Sprintf("v2_stream=true_par%d", par), func(t *testing.T) {
			t.Parallel()
			served := chaosDBPar(t, par)
			srv := NewServer(served)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			// One faulted connection, then clean: the retrying client must
			// always converge on the exact oracle bytes, and every fault must
			// have fired on the way.
			for _, f := range chaosFaults(chaosExchange(t, addr)) {
				c, err := DialOptions(addr, Options{
					Retry: chaosRetry(4),
					Dial:  faultnet.NewDialer(faultnet.Plan{Conns: []faultnet.Fault{f}}).Dial,
				})
				if err != nil {
					t.Fatalf("fault %v: dial: %v", f, err)
				}
				start := time.Now()
				res, err := c.Exec(chaosQuery)
				if err != nil {
					t.Fatalf("fault %v: retrying client failed: %v", f, err)
				}
				if got := canonical(res); !bytes.Equal(got, oracle) {
					t.Fatalf("fault %v: result diverged from oracle (%d vs %d bytes)", f, len(got), len(oracle))
				}
				checkFired(t, f, c.Reconnects(), time.Since(start))
				c.Close()
			}

			// Every connection faulted with a hard failure: the client must
			// exhaust its attempts and surface a typed error — a nil error
			// with wrong bytes is the one forbidden outcome.
			for _, f := range []faultnet.Fault{
				{Action: faultnet.Refuse},
				{Action: faultnet.Drop, Offset: 0},
				{Action: faultnet.Truncate, Offset: 7},
				{Action: faultnet.Corrupt, Offset: 40},
				{Action: faultnet.Reset, Offset: 0},
			} {
				c, err := DialOptions(addr, Options{
					Retry: chaosRetry(3),
					Dial:  faultnet.NewDialer(faultnet.Repeat(f, 32)).Dial,
				})
				if err != nil {
					continue
				}
				res, err := c.Exec(chaosQuery)
				if err == nil {
					if got := canonical(res); !bytes.Equal(got, oracle) {
						t.Fatalf("all-faults %v: SILENT CORRUPTION: nil error with diverging result", f)
					}
					t.Fatalf("all-faults %v: expected failure, got clean result", f)
				}
				var xe *ExchangeError
				if !errors.As(err, &xe) {
					t.Fatalf("all-faults %v: untyped error %T: %v", f, err, err)
				}
				if xe.Kind == KindTerminal {
					t.Fatalf("all-faults %v: transport fault classified terminal: %v", f, err)
				}
				if xe.Attempts != 3 {
					t.Fatalf("all-faults %v: %d attempts, want 3", f, xe.Attempts)
				}
				c.Close()
			}
		})
	}
}

// TestChaosSeededSweep drives randomized fault plans (deterministic per
// seed) against a retrying client: any outcome is legal except a wrong
// result or an untyped error.
func TestChaosSeededSweep(t *testing.T) {
	d := chaosDB(t)
	oracleRes, err := d.Exec(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	oracle := canonical(oracleRes)

	srv := NewServer(chaosDB(t))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for seed := int64(1); seed <= 10; seed++ {
		plan := faultnet.RandomPlan(seed, 6)
		c, err := DialOptions(addr, Options{Retry: chaosRetry(8), Dial: faultnet.NewDialer(plan).Dial})
		if err != nil {
			continue // refused initial dial with retries disabled mid-plan is fine
		}
		res, err := c.Exec(chaosQuery)
		switch {
		case err == nil:
			if got := canonical(res); !bytes.Equal(got, oracle) {
				t.Fatalf("seed %d (%v): SILENT CORRUPTION", seed, plan)
			}
		default:
			var xe *ExchangeError
			if !errors.As(err, &xe) {
				t.Fatalf("seed %d (%v): untyped error %T: %v", seed, plan, err, err)
			}
		}
		c.Close()
	}
}

// TestChaosNonIdempotentNeverRetried locks the write-safety rule: a DML
// statement that dies mid-exchange fails after exactly one attempt, even
// with retries configured.
func TestChaosNonIdempotentNeverRetried(t *testing.T) {
	srv := NewServer(chaosDB(t))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Fault every connection so a retry, if wrongly attempted, would also
	// fail — the assertion is on the attempt count.
	c, err := DialOptions(addr, Options{
		Retry: chaosRetry(5),
		Dial:  faultnet.NewDialer(faultnet.Repeat(faultnet.Fault{Action: faultnet.Drop, Offset: 40}, 16)).Dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("INSERT INTO cust VALUES (99, 'Zed', 'gold')")
	if err == nil {
		t.Fatal("expected the faulted INSERT to fail")
	}
	var xe *ExchangeError
	if !errors.As(err, &xe) {
		t.Fatalf("untyped error %T: %v", err, err)
	}
	if xe.Attempts != 1 {
		t.Fatalf("non-idempotent statement retried: %d attempts", xe.Attempts)
	}
}

// TestChaosErrorContext: a connection that dies mid-result surfaces with
// query context (hash, frame index, bytes read) instead of a raw io.EOF.
func TestChaosErrorContext(t *testing.T) {
	_, received := chaosExchange(t, chaosServer(t))
	srv := NewServer(chaosDB(t))
	// The server's connections die halfway through the response, so the
	// client has consumed whole response frames (the header chunk at least)
	// when the stream ends, however its reads are segmented.
	srv.ListenFunc = func(network, addr string) (net.Listener, error) {
		return faultnet.Listen(network, addr, faultnet.Repeat(faultnet.Fault{Action: faultnet.Truncate, Offset: received / 2}, 4))
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Single attempt: observe the raw classified failure.
	c, err := DialOptions(addr, Options{Retry: RetryPolicy{MaxAttempts: 1, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec(chaosQuery)
	if err == nil {
		t.Fatal("expected mid-result drop to fail")
	}
	var xe *ExchangeError
	if !errors.As(err, &xe) {
		t.Fatalf("mid-result drop returned untyped %T: %v", err, err)
	}
	if xe.QueryHash == 0 {
		t.Error("missing query hash")
	}
	if xe.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", xe.Attempts)
	}
	if xe.FrameIndex < 1 || xe.BytesRead <= 0 {
		t.Errorf("mid-result drop context: frame %d, %d bytes — want progress recorded", xe.FrameIndex, xe.BytesRead)
	}
	if !IsRetryable(err) && !IsCorrupt(err) {
		t.Errorf("mid-result drop classified %v", xe.Kind)
	}
	msg := err.Error()
	if !bytes.Contains([]byte(msg), []byte("exchange error")) {
		t.Errorf("error lacks exchange context: %q", msg)
	}
}

// chaosServer serves a fresh chaosDB without faults and returns its address.
func chaosServer(t *testing.T) string {
	t.Helper()
	srv := NewServer(chaosDB(t))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// TestChaosServerSideFaults installs faultnet under the server's ListenFunc
// hook, so the faults hit the response direction: a corrupted response byte
// must be caught by the CRC trailer and healed by a retry on the next
// (clean) accepted connection.
func TestChaosServerSideFaults(t *testing.T) {
	d := chaosDB(t)
	oracleRes, err := d.Exec(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	oracle := canonical(oracleRes)

	// Offsets land inside the response: a server writes it (every chunk,
	// then the end frame, in one flush) after reading the query.
	sent, received := chaosExchange(t, chaosServer(t))
	for _, f := range []faultnet.Fault{
		{Action: faultnet.Corrupt, Offset: received / 2},     // inside the encoded response
		{Action: faultnet.Truncate, Offset: received / 3},    // cut mid-response-frame
		{Action: faultnet.Drop, Offset: sent + received*3/4}, // reads count too
		{Action: faultnet.Reset, Offset: received / 2},
		{Action: faultnet.Refuse},
	} {
		srv := NewServer(chaosDB(t))
		srv.ListenFunc = func(network, addr string) (net.Listener, error) {
			return faultnet.Listen(network, addr, faultnet.Plan{Conns: []faultnet.Fault{f}})
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := DialOptions(addr, Options{Retry: chaosRetry(4)})
		if err != nil {
			t.Fatalf("fault %v: dial: %v", f, err)
		}
		res, err := c.Exec(chaosQuery)
		if err != nil {
			t.Fatalf("server-side fault %v: retrying client failed: %v", f, err)
		}
		if got := canonical(res); !bytes.Equal(got, oracle) {
			t.Fatalf("server-side fault %v: SILENT CORRUPTION", f)
		}
		c.Close()
		// A corrupt response must have been detected, not absorbed; every
		// other fault must have cut the connection it was scheduled on.
		checkFired(t, f, c.Reconnects(), 0)
		srv.Close()
	}
}

// recordingConn keeps a copy of every byte written to and read from it.
type recordingConn struct {
	net.Conn
	out, in *bytes.Buffer
}

func (c recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Write(p[:n])
	return n, err
}

func (c recordingConn) Write(p []byte) (int, error) {
	c.out.Write(p)
	return c.Conn.Write(p)
}

// frameTypes splits a recorded byte stream into frames, verifying every
// frame's trailer, and returns their types. Bytes a frame without a trailer
// left over, or a trailer that does not match, fail the test.
func frameTypes(t *testing.T, what string, stream []byte) []byte {
	t.Helper()
	var types []byte
	for r := bytes.NewReader(stream); r.Len() > 0; {
		typ, _, err := readFrame(r)
		if err != nil {
			t.Fatalf("%s: frame %d: %v", what, len(types), err)
		}
		types = append(types, typ)
	}
	return types
}

// TestIntegrityOnEveryFrame: every frame in both directions carries a CRC32
// trailer, and a byte flipped in a query frame or in a response frame
// surfaces as a checksum failure instead of a different statement or
// result.
func TestIntegrityOnEveryFrame(t *testing.T) {
	srv := NewServer(chaosDB(t))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var out, in bytes.Buffer
	c, err := DialOptions(addr, Options{Dial: func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		return recordingConn{Conn: conn, out: &out, in: &in}, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(chaosQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("SELECT nope FROM nowhere"); !IsTerminal(err) {
		t.Fatalf("bad statement: %v, want a terminal error", err)
	}
	c.Close()
	if got := frameTypes(t, "client -> server", out.Bytes()); !bytes.Equal(got, []byte{frameQuery, frameQuery}) {
		t.Errorf("client sent frame types %v, want two queries", got)
	}
	got := frameTypes(t, "server -> client", in.Bytes())
	if n := len(got); n < 4 || got[n-2] != frameEnd || got[n-1] != frameErr {
		t.Errorf("server sent frame types %v, want chunks, an end, then an error", got)
	}
	for _, typ := range got[:len(got)-2] {
		if typ != frameChunk {
			t.Errorf("server sent frame types %v, want chunks before the end", got)
		}
	}
	if n := srv.Stats().ChecksumFailures; n != 0 {
		t.Errorf("clean traffic produced %d checksum failures", n)
	}

	// A query frame with one payload byte flipped after its trailer was
	// computed: the server reports the mismatch and sheds the connection.
	var query bytes.Buffer
	query.Write(appendFrame(nil, frameQuery, []byte(chaosQuery)))
	query.Bytes()[5+len("SELECT ")] ^= 0x20
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(query.Bytes()); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(conn)
	if err != nil || typ != frameErr || !strings.Contains(string(payload), "checksum mismatch") {
		t.Fatalf("corrupt query drew type %d %q (%v), want a checksum frameErr", typ, payload, err)
	}
	if n := srv.Stats().ChecksumFailures; n != 1 {
		t.Errorf("server counted %d checksum failures, want 1", n)
	}

	// A response chunk with one payload byte flipped: the client reports a
	// corrupt exchange wrapping the checksum failure.
	res, err := srv.db.Exec(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	var resp bytes.Buffer
	resp.Write(appendFrame(nil, frameChunk, EncodeResultV2(res)))
	resp.Bytes()[5+100] ^= 0x01
	resp.Write(appendFrame(nil, frameEnd, nil))
	fake := fakeServer(t, func(conn net.Conn) { conn.Write(resp.Bytes()) })
	fc, err := DialOptions(fake, Options{Retry: RetryPolicy{MaxAttempts: 1, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if _, err := fc.Exec(chaosQuery); !IsCorrupt(err) || !errors.Is(err, errChecksum) {
		t.Fatalf("corrupt response: %v, want a corrupt exchange error wrapping the checksum mismatch", err)
	}
}

// TestShutdownKicksIdleConnections: drain must not wait for idle clients.
func TestShutdownKicksIdleConnections(t *testing.T) {
	srv := NewServer(chaosDB(t))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(chaosQuery); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(30 * time.Second) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung on an idle connection")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Shutdown of an idle connection took %v", d)
	}
	if n := srv.ActiveConns(); n != 0 {
		t.Fatalf("%d connections still active after Shutdown", n)
	}
	// The listener is gone: new dials must fail (the client with retries
	// must still surface a typed error, not hang).
	if c2, err := DialOptions(addr, Options{Retry: chaosRetry(2)}); err == nil {
		if _, err := c2.Exec(chaosQuery); err == nil {
			t.Fatal("Exec succeeded against a shut-down server")
		}
		c2.Close()
	}
}

// TestShutdownUnderLoad drains while concurrent clients are mid-query:
// every Exec must either succeed byte-exactly or fail with an error — and
// the drain must complete.
func TestShutdownUnderLoad(t *testing.T) {
	d := chaosDB(t)
	oracleRes, err := d.Exec(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	oracle := canonical(oracleRes)

	srv := NewServer(chaosDB(t))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				return
			}
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := c.Exec(chaosQuery)
				if err != nil {
					return // drained mid-exchange: an error, never bad bytes
				}
				if got := canonical(res); !bytes.Equal(got, oracle) {
					t.Error("SILENT CORRUPTION during drain")
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(10 * time.Second) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Shutdown hung under load")
	}
	close(stop)
	wg.Wait()
	if n := srv.ActiveConns(); n != 0 {
		t.Fatalf("%d connections active after drain", n)
	}
	st := srv.Stats()
	if st.Accepted == 0 || st.Queries == 0 {
		t.Fatalf("implausible stats after load: %+v", st)
	}
}

// TestServerStats checks the counters and their trace rendering.
func TestServerStats(t *testing.T) {
	srv := NewServer(chaosDB(t))
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
	if _, err := c.Exec(chaosQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("SELECT nope FROM nowhere"); err == nil {
		t.Fatal("bad query succeeded")
	} else if !IsTerminal(err) {
		t.Errorf("statement error classified %v, want terminal", err)
	}
	st := srv.Stats()
	if st.Accepted < 1 || st.Queries < 2 || st.QueryErrors < 1 {
		t.Fatalf("stats = %+v, want >=1 accepted, >=2 queries, >=1 error", st)
	}
	lines := st.Trace().CompactLines()
	joined := ""
	for _, l := range lines {
		joined += l + "\n"
	}
	for _, want := range []string{"conns_accepted: ", "queries: 2", "query_errors: 1"} {
		if !bytes.Contains([]byte(joined), []byte(want)) {
			t.Errorf("stats trace missing %q in:\n%s", want, joined)
		}
	}
}

// FuzzFaultPlan decodes arbitrary bytes into a bounded fault plan and runs
// a retrying client under it: the client must neither hang nor panic, and a
// nil error must mean byte-exact oracle equality.
func FuzzFaultPlan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{2, 40, 10, 4, 90, 0})
	f.Add([]byte{6, 0, 0, 6, 0, 0, 3, 30, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 24))

	d := chaosDB(f)
	oracleRes, err := d.Exec(chaosQuery)
	if err != nil {
		f.Fatal(err)
	}
	oracle := canonical(oracleRes)
	srv := NewServer(chaosDB(f))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })

	f.Fuzz(func(t *testing.T, data []byte) {
		plan := faultnet.DecodePlan(data)
		o := Options{Retry: RetryPolicy{
			MaxAttempts:    2,
			BaseBackoff:    time.Millisecond,
			MaxBackoff:     2 * time.Millisecond,
			Jitter:         -1,
			ConnectTimeout: 2 * time.Second,
			AttemptTimeout: 5 * time.Second,
			QueryTimeout:   20 * time.Second,
			Seed:           1,
		}, Dial: faultnet.NewDialer(plan).Dial}
		c, err := DialOptions(addr, o)
		if err != nil {
			return
		}
		defer c.Close()
		res, err := c.Exec(chaosQuery)
		if err == nil {
			if got := canonical(res); !bytes.Equal(got, oracle) {
				t.Fatalf("plan %v: silent corruption", plan)
			}
			return
		}
		var xe *ExchangeError
		if !errors.As(err, &xe) {
			t.Fatalf("plan %v: untyped error %T: %v", plan, err, err)
		}
	})
}
