// Command quickstart is the smallest end-to-end tour of the public API:
// open a database, create collections on different access methods, run
// intersection / stabbing / Allen-relation queries through the same
// Collection methods on each, stream a cancellable scan, query a
// collection through SQL, and read the paper's I/O cost metric.
package main

import (
	"context"
	"fmt"
	"log"

	"ritree"
)

func main() {
	// One database, many collections: each collection is a named interval
	// relation served by a pluggable access method (paper §5).
	db, err := ritree.OpenMemory()
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// The paper's disk-relational RI-tree...
	flights, err := db.CreateCollection("flights") // default: AccessMethod("ritree")
	if err != nil {
		log.Fatal(err)
	}
	// ...and the main-memory HINT, side by side in the same database.
	sessions, err := db.CreateCollection("sessions", ritree.AccessMethod("hint"))
	if err != nil {
		log.Fatal(err)
	}

	// A handful of intervals: id -> [lower, upper].
	data := map[int64]ritree.Interval{
		1: ritree.NewInterval(2, 8),
		2: ritree.NewInterval(5, 12),
		3: ritree.NewInterval(10, 25),
		4: ritree.Point(15),
		5: ritree.NewInterval(0, 40),
	}
	for id, iv := range data {
		if err := flights.Insert(iv, id); err != nil {
			log.Fatal(err)
		}
		if err := sessions.Insert(iv, id); err != nil {
			log.Fatal(err)
		}
	}
	for _, info := range db.Collections() {
		fmt.Printf("collection %-10s method=%-6s\n", info.Name, info.Method)
	}

	// Both collections answer every query identically through the same
	// methods — the access method only changes the cost profile.
	q := ritree.NewInterval(9, 14)
	for _, c := range []*ritree.Collection{flights, sessions} {
		ids, err := c.Intersecting(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s ∩ %v:\n", c.Name(), q)
		for _, id := range ids {
			fmt.Printf("  id %d = %v\n", id, data[id])
		}
	}

	stab, _ := flights.Stab(15)
	fmt.Printf("\nintervals containing the point 15: %v\n", stab)

	// Allen's fine-grained relations (paper §4.5): which intervals lie
	// strictly inside the query?
	inside, _ := sessions.Query(ritree.During, ritree.NewInterval(1, 30))
	fmt.Printf("intervals during [1, 30]: %v\n", inside)

	// Streaming, cancellable queries: Scan yields ids as the index
	// produces them; break out to stop early, and a cancelled context
	// surfaces as the iterator's final error.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fmt.Print("\nfirst two ids streaming out of Scan: ")
	seen := 0
	for id, err := range flights.Scan(ctx, ritree.Intersects(ritree.NewInterval(0, 100))) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d ", id)
		if seen++; seen == 2 {
			break
		}
	}
	fmt.Println()

	// Deletion is a single relational statement (paper Figure 5).
	if ok, _ := flights.Delete(ritree.NewInterval(5, 12), 2); ok {
		fmt.Println("\ndeleted id 2 from flights")
	}
	left, _ := flights.Intersecting(q)
	fmt.Printf("now intersecting %v: %v\n", q, left)

	// Collections are SQL-visible too.
	res, err := db.Exec("SELECT id FROM flights WHERE intersects(lower, upper, 9, 14) ORDER BY id", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSQL over the collection: %v\n", res.Rows)

	// The paper's cost metric: physical block reads through the buffer
	// cache (2 KB pages, 200-page cache by default). The ritree method runs
	// the paper's two-fold query (Figure 9); `go run ./cmd/ribench -exp
	// fig10` prints that statement and its Figure 10 plan.
	db.ResetStats()
	flights.Intersecting(q)
	st := db.Stats()
	fmt.Printf("\nquery cost: %d logical / %d physical page reads\n",
		st.LogicalReads, st.PhysicalReads)
}
