// Matview: the paper's use case 2 (Section 1.2) — materialized views without
// denormalization redundancy.
//
// A classic materialized view stores the joined, denormalized result; a
// RESULTDB view stores only the reduced base relations — typically far
// smaller — and still supports reconstructing the join (the post-join).
package main

import (
	"fmt"
	"log"

	"resultdb/internal/db"
	"resultdb/internal/workload/job"
)

// The view joins titles, their US production companies, and their plot
// info lines: every extra info line repeats title+company text, every extra
// company repeats title+info text — classic multiplicative redundancy.
const viewBody = `
FROM title AS t, movie_companies AS mc, company_name AS cn, movie_info AS mi, info_type AS it
WHERE cn.country_code = '[us]'
  AND it.id = 10
  AND mc.company_id = cn.id
  AND mc.movie_id = t.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND t.production_year > 2000`

func main() {
	d := db.New()
	if err := job.Load(d, job.Config{Scale: 0.25, Seed: 42}); err != nil {
		log.Fatal(err)
	}

	// Classic materialized view: the denormalized join result.
	_, err := d.Exec("CREATE MATERIALIZED VIEW flat_mv AS SELECT t.title AS title, cn.name AS company, mi.info AS info " + viewBody)
	if err != nil {
		log.Fatal(err)
	}
	flat, err := d.Table("flat_mv")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("classic MV:  1 table, %6d rows, %8d bytes (denormalized)\n",
		flat.Len(), flat.WireSize())

	// RESULTDB materialized view: one reduced base table per relation.
	res, err := d.Exec("CREATE MATERIALIZED VIEW norm_mv AS SELECT RESULTDB t.title, cn.name, mi.info " + viewBody)
	if err != nil {
		log.Fatal(err)
	}
	totalBytes := 0
	fmt.Printf("RESULTDB MV: %d tables —", len(res.Sets))
	for _, set := range res.Sets {
		fmt.Printf(" %s(%d rows)", set.Name, set.NumRows())
		totalBytes += set.WireSize()
	}
	fmt.Printf(", %d bytes total\n", totalBytes)
	fmt.Printf("storage reduction: %.1fx\n", float64(flat.WireSize())/float64(totalBytes))

	// The stored views are ordinary tables: filter one directly — much
	// cheaper than scanning the wide flat view.
	cnt, err := d.QuerySQL("SELECT COUNT(*) FROM norm_mv_cn AS v WHERE v.name LIKE '%Pictures%'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("companies in the view matching '%%Pictures%%': %s\n", cnt.First().Row(0))

	// The single-table result stays reconstructible: post-join the stored
	// views on the preserved keys (Definition 2.3). The paper's semantics
	// are set-based (Section 2.2), so we compare DISTINCT results — the
	// flat view may carry exact-duplicate rows (e.g. a company linked to
	// the same movie in two roles) that set semantics collapses.
	post, err := d.QuerySQL(`
SELECT DISTINCT t.title, cn.name, mi.info
FROM norm_mv_t AS t, norm_mv_mc AS mc, norm_mv_cn AS cn, norm_mv_mi AS mi
WHERE mc.company_id = cn.id AND mc.movie_id = t.id AND mi.movie_id = t.id`)
	if err != nil {
		log.Fatal(err)
	}
	distinctFlat, err := d.QuerySQL("SELECT DISTINCT f.title, f.company, f.info FROM flat_mv AS f")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-join over the stored views: %d distinct rows (flat view: %d distinct rows)\n",
		post.First().NumRows(), distinctFlat.First().NumRows())
}
