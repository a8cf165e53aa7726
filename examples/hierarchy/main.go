// Hierarchy: the paper's use case 1 (Section 1.2) — querying subtype tables.
//
// products has two subtypes, electronics and clothing, with incompatible
// schemas. Classic SQL must LEFT OUTER JOIN them into one table, padding
// with NULLs (Listing 2). SELECT RESULTDB returns each subtype as its own
// clean relation, eliminating the padding entirely.
package main

import (
	"fmt"
	"log"

	"resultdb/internal/db"
	"resultdb/internal/workload/hierarchy"
)

func main() {
	d := db.New()
	if err := hierarchy.Load(d, hierarchy.DefaultConfig()); err != nil {
		log.Fatal(err)
	}

	// Listing 2: single-table formulation with OUTER JOINs.
	outer, err := d.QuerySQL(hierarchy.OuterJoinQuery)
	if err != nil {
		log.Fatal(err)
	}
	set := outer.First()
	nulls := 0
	for j := range set.Columns {
		col := set.Column(j)
		for i := range set.NumRows() {
			if col.At(i).IsNull() {
				nulls++
			}
		}
	}
	fmt.Printf("single-table (LEFT OUTER JOIN): %d rows x %d cols, %d bytes, %d NULL padding cells\n",
		set.NumRows(), len(set.Columns), outer.WireSize(), nulls)

	// RESULTDB formulation: one clean relation per subtype.
	elec, err := d.QuerySQL(hierarchy.ResultDBElectronics)
	if err != nil {
		log.Fatal(err)
	}
	cloth, err := d.QuerySQL(hierarchy.ResultDBClothing)
	if err != nil {
		log.Fatal(err)
	}
	total := elec.WireSize() + cloth.WireSize()
	fmt.Printf("RESULTDB: electronics %d rows + clothing %d rows, %d bytes, 0 NULL padding cells\n",
		elec.First().NumRows(), cloth.First().NumRows(), total)
	fmt.Printf("size reduction: %.1fx\n", float64(outer.WireSize())/float64(total))

	fmt.Println("\nfirst electronics rows (id, pid, storage):")
	preview(elec.First(), 3)
	fmt.Println("first clothing rows (id, pid, size):")
	preview(cloth.First(), 3)
}

func preview(set *db.ResultSet, n int) {
	for i := range min(set.NumRows(), n) {
		fmt.Println("  ", set.Row(i))
	}
}
