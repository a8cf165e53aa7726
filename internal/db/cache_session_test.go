package db_test

import (
	"bytes"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/wire"
)

// TestCacheServesEachSessionItsOwnResult: whatever another session put in
// the result cache first, a result the cache serves to a session equals — in
// v2 bytes and in its reduction summary — what the same session computes with
// the cache off. The sessions differ in every execution value a session sets
// (strategy and degree; the cache is the third), over the paper example.
func TestCacheServesEachSessionItsOwnResult(t *testing.T) {
	queries := []string{
		`SELECT RESULTDB c.name FROM customers AS c, orders AS o, products AS p
		 WHERE c.state = 'NY' AND c.id = o.cid AND p.id = o.pid`,
		`SELECT RESULTDB p.name FROM customers AS c, orders AS o, products AS p
		 WHERE c.state = 'NY' AND c.id = o.cid AND p.id = o.pid`,
		// JG-cyclic, α-acyclic: reduced over a join tree.
		`SELECT RESULTDB a.name, b.name
		 FROM customers AS a, customers AS b, orders AS oa, orders AS ob
		 WHERE a.id = oa.cid AND b.id = ob.cid AND oa.pid = ob.pid AND a.id = b.id`,
	}
	settings := []struct {
		name string
		set  func(*db.Session)
	}{
		{"default", func(*db.Session) {}},
		{"decompose", func(s *db.Session) { s.Strategy = db.StrategyDecompose }},
		{"serial", func(s *db.Session) { s.CoreOptions.Parallelism = 1 }},
		{"parallel-4", func(s *db.Session) { s.CoreOptions.Parallelism = 4 }},
	}
	for qi, q := range queries {
		for _, own := range settings {
			for _, filler := range settings {
				d := db.New()
				if _, err := d.ExecScript(db.PaperExampleSQL); err != nil {
					t.Fatal(err)
				}
				d.EnableCache(0)
				fill := d.NewSession()
				filler.set(fill)
				if _, err := fill.Exec(q); err != nil {
					t.Fatal(err)
				}
				cached, uncached := d.NewSession(), d.NewSession()
				own.set(cached)
				own.set(uncached)
				uncached.CoreOptions.ResultCache = false
				got, err := cached.Exec(q)
				if err != nil {
					t.Fatal(err)
				}
				// The strategy is the cache key's one execution value.
				if hits := d.CacheStats().Hits; (hits == 1) != (cached.Strategy == fill.Strategy) {
					t.Fatalf("query %d, session %s after %s: %d cache hits", qi, own.name, filler.name, hits)
				}
				want, err := uncached.Exec(q)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wire.EncodeResultV2(got), wire.EncodeResultV2(want)) || statsLine(got) != statsLine(want) {
					t.Errorf("query %d, session %s after %s filled the cache: served %q, computes %q",
						qi, own.name, filler.name, statsLine(got), statsLine(want))
				}
			}
		}
	}
}

// statsLine is a result's reduction summary, as the shell prints it; empty
// for the Decompose strategy, which has none.
func statsLine(r *db.Result) string {
	if r.Stats == nil {
		return ""
	}
	return r.Stats.String()
}
