// Distributed: the paper's use case 3 (Section 1.2) — shipping query results
// over a network.
//
// A server hosts the JOB-like workload; a client connects over TCP and runs
// the same query twice: classic single-table and SELECT RESULTDB. The
// subdatabase ships far fewer bytes; at the paper's modeled 100 Mbps that
// translates directly into transfer-time savings (Table 3), at the cost of
// a client-side post-join.
package main

import (
	"fmt"
	"log"
	"time"

	"resultdb/internal/client"
	"resultdb/internal/db"
	"resultdb/internal/wire"
	"resultdb/internal/workload/job"
)

const query = `
SELECT k.keyword, n.name, t.title
FROM cast_info AS ci, keyword AS k, movie_keyword AS mk, name AS n, title AS t
WHERE ci.movie_id = t.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND ci.person_id = n.id
  AND t.production_year > 1980`

func main() {
	// Server side: load the workload and listen on a loopback socket.
	served := db.New()
	if err := job.Load(served, job.Config{Scale: 0.1, Seed: 42}); err != nil {
		log.Fatal(err)
	}
	srv := wire.NewServer(served)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("server listening on", addr)

	// Client side: a real TCP connection.
	conn, err := wire.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	run := func(label, sql string) (*db.Result, int, time.Duration) {
		before := conn.BytesRead()
		start := time.Now()
		res, err := conn.Exec(sql)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		elapsed := time.Since(start)
		return res, conn.BytesRead() - before, elapsed
	}

	st, stBytes, stTime := run("single-table", query)
	rdb, rdbBytes, rdbTime := run("resultdb", "SELECT RESULTDB"+query[len("\nSELECT"):])

	model := wire.DefaultTransfer // 100 Mbps, as in the paper
	fmt.Printf("\nsingle table : %7d rows, %9d wire bytes, loopback %7v, @100Mbps %8v\n",
		st.First().NumRows(), stBytes, stTime.Round(time.Millisecond), model.Duration(stBytes).Round(time.Millisecond))
	rows := 0
	for _, s := range rdb.Sets {
		rows += s.NumRows()
	}
	fmt.Printf("subdatabase  : %7d rows, %9d wire bytes, loopback %7v, @100Mbps %8v (%d relations)\n",
		rows, rdbBytes, rdbTime.Round(time.Millisecond), model.Duration(rdbBytes).Round(time.Millisecond), len(rdb.Sets))
	fmt.Printf("transfer reduction: %.1fx\n", float64(stBytes)/float64(rdbBytes))

	// Plan shipping (the paper's "subdatabase snapshot", Section 7): ask
	// for the relationship-preserving subdatabase and let the client
	// reconstruct the single-table result mechanically from the shipped
	// post-join plan — no knowledge of the original query needed.
	sub, err := client.Open(conn).QuerySubDB(
		"SELECT RESULTDB PRESERVING" + query[len("\nSELECT"):])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nshipped plan : %v\n", sub.Result().PostJoinPlan)
	start := time.Now()
	post, err := sub.PostJoin()
	if err != nil {
		log.Fatal(err)
	}
	// The paper's semantics are set-based (Section 2.2), so compare the
	// reconstruction as a set of rows against the single-table result.
	distinct := map[string]bool{}
	for post.Next() {
		distinct[post.Row().String()] = true
	}
	elapsed := time.Since(start)
	stDistinct := map[string]bool{}
	stSet := st.First()
	for i := range stSet.NumRows() {
		stDistinct[stSet.Row(i).String()] = true
	}
	fmt.Printf("client post-join: %d distinct rows in %v (single table: %d distinct rows)\n",
		len(distinct), elapsed.Round(time.Millisecond), len(stDistinct))
}
