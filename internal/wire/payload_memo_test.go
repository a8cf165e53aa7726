package wire

import (
	"bytes"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/types"
	"resultdb/internal/workload/job"
)

// Guards around the encode-once payload memo (db.PayloadMemo): it is armed
// by cache admission only, it stays inside the cache's byte budget and dies
// with its entry, and it is what a hit is served from — no column is encoded
// again, and a small materialised response leaves in one write.

// TestPayloadMemoUncachedResultsEncodeAfresh: results the cache does not own
// may be mutated between encodes and must encode to the new bytes.
func TestPayloadMemoUncachedResultsEncodeAfresh(t *testing.T) {
	handBuilt := oneSet("a", []string{"x", "y"}, []types.Row{
		{types.NewInt(1), types.NewText("one")},
		{types.NewInt(2), types.NewText("two")},
	})
	d := chaosDBPar(t, 1) // cache off
	executed, err := d.Exec(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*db.Result{"hand-built": handBuilt, "uncached": executed} {
		for _, set := range r.Sets {
			if set.Memo() != nil {
				t.Fatalf("%s: set %q carries a payload memo without cache admission", name, set.Name)
			}
		}
		before := bothVersions(r)
		r.Sets[0].Rows[0][0] = types.NewInt(424242)
		r.Sets[0].Vec = nil // the columnar view mirrors the rows it was built from
		after := bothVersions(r)
		for v := range after {
			if bytes.Equal(after[v], before[v]) {
				t.Fatalf("%s: encoding %d served stale bytes after a mutation", name, v)
			}
			dec, err := DecodeResult(after[v])
			if err != nil {
				t.Fatal(err)
			}
			if got := dec.Sets[0].Rows[0][0]; got.Int() != 424242 {
				t.Fatalf("%s: encoding %d decoded %v, want the mutated value", name, v, got)
			}
		}
	}
}

// keptBytes sums the payload bytes r's memos hold.
func keptBytes(r *db.Result) int {
	n := 0
	for _, set := range r.Sets {
		n += len(set.Memo().Load())
	}
	if r.PostJoinPlan != nil {
		n += len(r.PostJoinPlan.Memo().Load())
	}
	return n
}

// TestPayloadMemoStaysInsideCacheBudget: kept payloads are charged to the
// entry, cannot push resident bytes past the budget, and do not outlive the
// entry's eviction or invalidation; v1 encodes neither keep nor charge
// anything.
func TestPayloadMemoStaysInsideCacheBudget(t *testing.T) {
	d := chaosDBPar(t, 1)
	d.EnableCache(64 << 20)
	exec := func() *db.Result {
		t.Helper()
		res, err := d.Exec(chaosQuery)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	within := func(when string) {
		t.Helper()
		if st := d.CacheStats(); st.Bytes > st.Budget {
			t.Fatalf("%s: resident bytes %d exceed the budget %d", when, st.Bytes, st.Budget)
		}
	}
	rows := d.CacheStats().Bytes
	if exec(); d.CacheStats().Bytes <= rows {
		t.Fatal("result was not admitted")
	}
	rows = d.CacheStats().Bytes - rows // the result's cost before any payload is kept
	v2Len := len(EncodeResultV2(exec()))

	// Room for half the payloads: keeping them evicts the entry rather than
	// overrun the budget, and nothing more is kept on the evicted result.
	d.ClearCache()
	d.EnableCache(rows + int64(v2Len)/2)
	res := exec()
	if st := d.CacheStats(); st.Entries != 1 || st.Bytes != rows {
		t.Fatalf("after the fill: %+v, want one entry of %d bytes", st, rows)
	}
	v2 := EncodeResultV2(res)
	within("after the payloads overflowed")
	if st := d.CacheStats(); st.Entries != 0 || st.Bytes != 0 || st.Evictions == 0 {
		t.Fatalf("overflowing entry still resident: %+v", st)
	}
	if n := keptBytes(res); n > v2Len/2 {
		t.Fatalf("evicted result kept %d payload bytes, more than the budget had room for (%d)", n, v2Len/2)
	}
	if !bytes.Equal(EncodeResultV2(res), v2) {
		t.Fatal("evicted result no longer encodes to the same bytes")
	}

	// Room for the payloads: kept, and charged byte for byte.
	d.ClearCache()
	d.EnableCache(rows + 2*int64(v2Len))
	res = exec()
	EncodeResultV2(res)
	kept := keptBytes(res)
	if st := d.CacheStats(); st.Entries != 1 || st.Bytes != rows+int64(kept) || kept == 0 {
		t.Fatalf("after keeping v2: %+v, kept %d, rows %d", st, kept, rows)
	}
	within("after keeping v2")
	if exec().First().Memo() != res.First().Memo() {
		t.Fatal("second execution was not served from the entry")
	}
	if EncodeResult(res); keptBytes(res) != kept || d.CacheStats().Bytes != rows+int64(kept) {
		t.Fatal("a v1 encode kept or charged a payload")
	}

	// Invalidation: the recomputed entry starts with nothing kept, and the
	// invalidated result cannot keep anything.
	d.ClearCache()
	stale := exec()
	if _, err := d.Exec("INSERT INTO ord VALUES (999998, 2, 99.5)"); err != nil {
		t.Fatal(err)
	}
	fresh := exec()
	if fresh == stale || keptBytes(fresh) != 0 {
		t.Fatalf("entry after the INSERT reuses the old result or its payloads (kept %d)", keptBytes(fresh))
	}
	if EncodeResultV2(stale); keptBytes(stale) != 0 {
		t.Fatal("invalidated result kept a payload after its entry was gone")
	}
	within("after invalidation")
	if st := d.CacheStats(); st.Entries != 1 || st.Invalidations == 0 {
		t.Fatalf("after invalidation: %+v", st)
	}
}

// TestPayloadMemoHitEncodesNoColumn: encoding a cached result a second time
// is a copy of the kept payloads. Every column encode allocates several times
// (its gather buffers, its block), so a ceiling of the output buffer plus one
// growth per relation on a four-column result means none ran.
func TestPayloadMemoHitEncodesNoColumn(t *testing.T) {
	d := chaosDBPar(t, 1)
	d.EnableCache(64 << 20)
	res, err := d.Exec(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := EncodeResultV2(res)         // fills the memo
	uncached, err := DecodeResult(want) // an equal result the cache does not own
	if err != nil {
		t.Fatal(err)
	}
	fresh := testing.AllocsPerRun(10, func() { EncodeResultV2(uncached) })
	hit := testing.AllocsPerRun(10, func() {
		if got := EncodeResultV2(res); len(got) != len(want) {
			t.Fatal("hit encoded to a different length")
		}
	})
	if ceiling := float64(1 + len(res.Sets)); hit > ceiling {
		t.Errorf("encoding a cached result again allocated %.0f times, want <= %.0f (a fresh encode: %.0f)",
			hit, ceiling, fresh)
	}
}

// countingListener counts Write calls on the connections it accepts.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, writes: l.writes}, nil
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestServeCachedHitLeavesInOneWrite: a cached multi-relation response
// smaller than the connection's write buffer reaches the socket in exactly
// one Write — header, relations and end-of-stream together.
func TestServeCachedHitLeavesInOneWrite(t *testing.T) {
	d := chaosDBPar(t, 1)
	d.EnableCache(64 << 20)
	var writes atomic.Int64
	srv := NewServer(d)
	srv.ListenFunc = func(network, addr string) (net.Listener, error) {
		ln, err := net.Listen(network, addr)
		return countingListener{Listener: ln, writes: &writes}, err
	}
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

	const sql = "SELECT RESULTDB c.name, o.id, o.total FROM cust AS c, ord AS o WHERE c.id = o.cust_id AND o.total > 1000"
	first, err := c.Exec(sql) // the filling response
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Sets) < 2 {
		t.Fatalf("want a multi-relation result, got %d sets", len(first.Sets))
	}
	hits, before, bytesBefore := d.CacheStats().Hits, writes.Load(), c.BytesRead()
	second, err := c.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if d.CacheStats().Hits != hits+1 {
		t.Fatal("second execution was not a cache hit")
	}
	if !bytes.Equal(EncodeResult(second), EncodeResult(first)) {
		t.Fatal("hit decoded to a different result")
	}
	if n := c.BytesRead() - bytesBefore; n <= 0 || n >= 4096 {
		t.Fatalf("response payload is %d bytes; the test needs one smaller than the write buffer", n)
	}
	// Exec returned, so the client has read the end-of-stream frame and the
	// server's writes for this response are all counted.
	if n := writes.Load() - before; n != 1 {
		t.Fatalf("cached response reached the socket in %d writes, want 1", n)
	}
}

// BenchmarkServeCachedHit is the warm path end to end in one process: a
// client over loopback asks a cache-on server
// for a statement whose result is resident — JOB 16b, the largest result,
// and 3c, a small one. What is left per hit: parse, canonical key, lookup,
// one flush of the kept payloads, and the client's decode.
func BenchmarkServeCachedHit(b *testing.B) {
	d := db.New()
	if err := job.Load(d, job.Config{Scale: 0.5, Seed: 42}); err != nil {
		b.Fatal(err)
	}
	d.EnableCache(db.DefaultCacheBudget)
	srv := NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for _, name := range []string{"3c", "16b"} {
		q, err := job.QueryByName(name)
		if err != nil {
			b.Fatal(err)
		}
		sql := "SELECT RESULTDB" + strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT")
		b.Run(name, func(b *testing.B) {
			if _, err := c.Exec(sql); err != nil { // fill
				b.Fatal(err)
			}
			hits, read := d.CacheStats().Hits, c.BytesRead()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Exec(sql); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if got := d.CacheStats().Hits - hits; got != uint64(b.N) {
				b.Fatalf("%d of %d executions were cache hits", got, b.N)
			}
			b.ReportMetric(float64(c.BytesRead()-read)/float64(b.N), "wire-B/op")
		})
	}
}
