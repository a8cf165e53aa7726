// Quickstart: build a tiny shop database (the paper's Figure 1 running
// example) and query it twice — once as plain SQL returning a single
// denormalized table (Figure 2), once with SELECT RESULTDB returning the
// subdatabase (the gray rows of Figure 1).
package main

import (
	"fmt"
	"log"

	"resultdb/internal/db"
)

const schema = `
CREATE TABLE customers (id INTEGER PRIMARY KEY, name TEXT, state TEXT);
CREATE TABLE orders    (oid INTEGER PRIMARY KEY, cid INTEGER, pid INTEGER);
CREATE TABLE products  (id INTEGER PRIMARY KEY, name TEXT, category TEXT);

INSERT INTO customers VALUES
  (0, 'custA', 'NY'), (1, 'custB', 'CA'), (2, 'custC', 'NY');
INSERT INTO orders VALUES
  (0, 0, 1), (1, 1, 1), (2, 1, 2), (3, 2, 1), (4, 0, 2), (5, 1, 3);
INSERT INTO products VALUES
  (0, 'smartphone', 'electronics'), (1, 'laptop', 'electronics'),
  (2, 'shirt', 'clothing'), (3, 'pants', 'clothing');
`

const query = `
SELECT c.name, p.name, p.category
FROM customers AS c, orders AS o, products AS p
WHERE c.state = 'NY' AND c.id = o.cid AND p.id = o.pid`

func main() {
	d := db.New()
	if _, err := d.ExecScript(schema); err != nil {
		log.Fatal(err)
	}

	fmt.Println("== single-table result (classic SQL, denormalized) ==")
	st, err := d.QuerySQL(query)
	if err != nil {
		log.Fatal(err)
	}
	printResult(st)

	fmt.Println("\n== SELECT RESULTDB (the subdatabase: no redundancy, no information loss) ==")
	rdb, err := d.QuerySQL("SELECT RESULTDB c.name, p.name, p.category FROM customers AS c, orders AS o, products AS p WHERE c.state = 'NY' AND c.id = o.cid AND p.id = o.pid")
	if err != nil {
		log.Fatal(err)
	}
	printResult(rdb)

	fmt.Printf("\nresult sizes: single table %d bytes, subdatabase %d bytes\n",
		st.WireSize(), rdb.WireSize())
}

func printResult(res *db.Result) {
	for _, set := range res.Sets {
		if len(res.Sets) > 1 {
			fmt.Printf("-- relation %s\n", set.Name)
		}
		for i := range set.NumRows() {
			fmt.Println("  ", set.Row(i))
		}
	}
}
