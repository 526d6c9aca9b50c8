// Command constraints demonstrates the remaining motivating workloads from
// the paper's introduction: "inaccurate measurements with tolerances in
// engineering databases" and "handling interval and finite domain
// constraints in declarative systems" [KS 91, KRVV 93].
//
// A parts catalog stores each part's resistance as a tolerance interval
// (nominal ± tolerance, in milliohms). Constraint queries then become
// interval queries:
//
//   - compatibility ("could this part measure 4.7 kΩ?") is a stabbing query;
//   - a specification window ("parts guaranteed within [4.5, 4.9] kΩ")
//     is an Allen During query;
//   - constraint propagation (intersecting a new constraint with every
//     stored domain) is an intersection query.
//
// It also shows the SQL face of the system: the tolerance bands live in a
// named collection (CREATE COLLECTION under the hood), queried both
// through the Collection methods and through SQL with the INTERSECTS
// operator (paper §5).
package main

import (
	"fmt"
	"log"

	"ritree"
)

func main() {
	db, err := ritree.OpenMemory()
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	idx, err := db.CreateCollection("tolerances") // the paper's RI-tree serves it
	if err != nil {
		log.Fatal(err)
	}

	// Parts: id -> tolerance interval in milliohm.
	type part struct {
		name    string
		nominal int64
		tol     int64
	}
	parts := map[int64]part{
		1: {"R-4700-5%", 4700_000, 235_000},
		2: {"R-4700-1%", 4700_000, 47_000},
		3: {"R-4750-2%", 4750_000, 95_000},
		4: {"R-5100-10%", 5100_000, 510_000},
		5: {"R-4300-5%", 4300_000, 215_000},
	}
	domain := func(p part) ritree.Interval {
		return ritree.NewInterval(p.nominal-p.tol, p.nominal+p.tol)
	}
	for id, p := range parts {
		if err := idx.Insert(domain(p), id); err != nil {
			log.Fatal(err)
		}
	}

	// 1) Compatibility: which parts could measure exactly 4.820 kΩ?
	ids, _ := idx.Stab(4_820_000)
	fmt.Println("parts whose tolerance band contains 4.820 kΩ:")
	for _, id := range ids {
		fmt.Printf("  %s (band %v)\n", parts[id].name, domain(parts[id]))
	}

	// 2) Specification window: parts guaranteed inside [4.5, 4.9] kΩ —
	//    their whole band must lie within the window: Allen During
	//    (or Starts/Finishes/Equals for exact boundary matches).
	window := ritree.NewInterval(4_500_000, 4_900_000)
	fmt.Printf("\nparts guaranteed within %v:\n", window)
	for _, r := range []ritree.Relation{ritree.During, ritree.Starts, ritree.Finishes, ritree.Equals} {
		got, _ := idx.Query(r, window)
		for _, id := range got {
			fmt.Printf("  %s (%v, relation %v)\n", parts[id].name, domain(parts[id]), r)
		}
	}

	// 3) Constraint propagation: a new measurement constrains the value to
	//    [4.6, 4.75] kΩ; which stored domains stay satisfiable?
	constraint := ritree.NewInterval(4_600_000, 4_750_000)
	ids, _ = idx.Intersecting(constraint)
	fmt.Printf("\ndomains consistent with the constraint %v: ", constraint)
	for _, id := range ids {
		fmt.Printf("%s ", parts[id].name)
	}
	fmt.Println()

	// 4) The declarative face (§5): the same collection is an ordinary
	//    relation to the SQL engine, its INTERSECTS operator served by the
	//    access-method domain index CREATE COLLECTION installed.
	res, err := db.Exec(
		"SELECT id FROM tolerances WHERE intersects(lower, upper, :a, :b) ORDER BY id",
		map[string]interface{}{"a": constraint.Lower, "b": constraint.Upper})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsame query through SQL over the collection:")
	for _, row := range res.Rows {
		fmt.Printf("  part #%d = %s\n", row[0], parts[row[0]].name)
	}
	plan, _ := db.Exec(
		"EXPLAIN SELECT id FROM tolerances WHERE intersects(lower, upper, :a, :b)",
		map[string]interface{}{"a": constraint.Lower, "b": constraint.Upper})
	fmt.Printf("\nexecution plan:\n%s", plan.Plan)
}
