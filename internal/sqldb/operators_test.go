package sqldb_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ritree/internal/hint"
	"ritree/internal/interval"
	"ritree/internal/pagestore"
	"ritree/internal/rel"
	"ritree/internal/ritree"
	"ritree/internal/sqldb"
)

// parityOp is one interval operator with an oracle written independently
// of the engine's operator table.
type parityOp struct {
	name  string
	point bool // CONTAINS_POINT: one query argument
	holds func(s, q interval.Interval) bool
}

func parityOps() []parityOp {
	ops := []parityOp{
		{name: "intersects", holds: interval.Interval.Intersects},
		{name: "contains_point", point: true, holds: func(s, q interval.Interval) bool { return s.ContainsPoint(q.Lower) }},
	}
	for r := interval.Relation(0); int(r) < interval.NumRelations; r++ {
		ops = append(ops, parityOp{name: sqldb.AllenOperatorNames()[r], holds: r.Holds})
	}
	return ops
}

// pred renders op over subject columns s and query columns q; a point
// operator takes the query's lower bound.
func (op parityOp) pred(s, q string) string {
	if op.point {
		return fmt.Sprintf("%s(%s.lo, %s.hi, %s.lo)", op.name, s, s, q)
	}
	return fmt.Sprintf("%s(%s.lo, %s.hi, %s.lo, %s.hi)", op.name, s, s, q, q)
}

// paritySource is one way a relation can reach an operator: a table
// under a domain index of some method, a table without one, or a
// TABLE(:x) transient.
type paritySource struct {
	name, method string
	transient    bool
}

// parityRows builds n rows (lo, hi, id) with ids from base, over a small
// domain where shared and touching endpoints are common, plus the
// boundary shapes every Allen relation discriminates on.
func parityRows(rng *rand.Rand, n int, base int64) [][]int64 {
	var rows [][]int64
	for i := 0; i < n; i++ {
		lo := rng.Int63n(60)
		rows = append(rows, []int64{lo, lo + rng.Int63n(25), base + int64(i)})
	}
	for i, iv := range [][2]int64{{10, 20}, {10, 20}, {20, 20}, {20, 30}, {10, 30}, {12, 20}, {10, 15}, {0, 100}} {
		rows = append(rows, []int64{iv[0], iv[1], base + 500 + int64(i)})
	}
	return rows
}

// parityEngine loads relations s and r into a fresh engine as src says:
// the FROM item naming each, and the binds a transient source needs.
func parityEngine(t *testing.T, src paritySource, s, r [][]int64) (e *sqldb.Engine, from map[string]string, binds map[string]interface{}) {
	t.Helper()
	db, err := rel.CreateDB(pagestore.NewMem(pagestore.Options{PageSize: 1024, CacheSize: 256}))
	if err != nil {
		t.Fatal(err)
	}
	e = sqldb.NewEngine(db)
	ritree.RegisterIndexType(e)
	hint.RegisterIndexType(e)
	hint.RegisterShardedIndexType(e, 3)
	e.RegisterIndexType("brute", &sqldb.BruteType{})
	if src.transient {
		cols := []string{"lo", "hi", "id"}
		return e, map[string]string{"s": "TABLE(:s)", "r": "TABLE(:r)"}, map[string]interface{}{
			"s": &sqldb.Transient{Cols: cols, Rows: s}, "r": &sqldb.Transient{Cols: cols, Rows: r}}
	}
	for name, rows := range map[string][][]int64{"s": s, "r": r} {
		e.MustExec("CREATE TABLE "+name+" (lo int, hi int, id int)", nil)
		if _, err := e.BulkInsert(name, rows); err != nil {
			t.Fatal(err)
		}
		if src.method != "" {
			e.MustExec(fmt.Sprintf("CREATE INDEX %s_iv ON %s (lo, hi) INDEXTYPE IS %s", name, name, src.method), nil)
		}
	}
	return e, map[string]string{"s": "s", "r": "r"}, map[string]interface{}{}
}

// drain runs a SELECT to the end: its rows, sorted, and the executed plan.
func drain(e *sqldb.Engine, sql string, binds map[string]interface{}) ([][]int64, string, error) {
	rows, err := e.Query(context.Background(), sql, binds)
	if err != nil {
		return nil, "", err
	}
	defer rows.Close()
	var out [][]int64
	for rows.Next() {
		out = append(out, slices.Clone(rows.Row()))
	}
	slices.SortFunc(out, slices.Compare[[]int64])
	return out, rows.PlanStats().Render(), rows.Err()
}

// TestOperatorParity: every interval operator — INTERSECTS,
// CONTAINS_POINT and the thirteen ALLEN_* — answers exactly like a
// brute-force filter over every source (ritree, hint, hint_sharded, the
// brute-force double, a table without a domain index, a transient), as a
// single-table predicate and as a join predicate in both argument orders
// under both join strategies; COUNT(*) equals the drained count; and an
// inverted query interval is the same error on every path.
func TestOperatorParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sRows, rRows := parityRows(rng, 40, 0), parityRows(rng, 30, 1000)
	ivOf := func(row []int64) interval.Interval { return interval.New(row[0], row[1]) }
	queries := []interval.Interval{interval.New(20, 30), interval.Point(20), interval.New(0, 5), interval.New(55, 90), interval.New(12, 100)}
	sources := []paritySource{
		{name: "ritree", method: ritree.IndexTypeName},
		{name: "hint", method: hint.IndexTypeName},
		{name: "hint_sharded", method: hint.ShardedIndexTypeName},
		{name: "brute", method: "brute"},
		{name: "no index"},
		{name: "transient", transient: true},
	}
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			e, from, binds := parityEngine(t, src, sRows, rRows)
			with := func(extra map[string]interface{}) map[string]interface{} {
				m := map[string]interface{}{}
				for k, v := range binds {
					m[k] = v
				}
				for k, v := range extra {
					m[k] = v
				}
				return m
			}
			// check runs sql, compares it with want and COUNT(*) with the
			// drained count, and returns the executed plan.
			check := func(what, where string, b map[string]interface{}, want [][]int64, cols string) string {
				t.Helper()
				got, plan, err := drain(e, "SELECT "+cols+" FROM "+where, b)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !slices.EqualFunc(got, want, slices.Equal[[]int64]) {
					t.Fatalf("%s: %d rows, brute force %d\ngot  %v\nwant %v", what, len(got), len(want), got, want)
				}
				count, _, err := drain(e, "SELECT count(*) FROM "+where, b)
				if err != nil {
					t.Fatalf("%s: COUNT(*): %v", what, err)
				}
				if count[0][0] != int64(len(got)) {
					t.Fatalf("%s: COUNT(*) = %d, drained %d", what, count[0][0], len(got))
				}
				return plan
			}
			for _, op := range parityOps() {
				// One table, constant query arguments.
				for _, q := range queries {
					var want [][]int64
					for _, row := range sRows {
						if op.holds(ivOf(row), q) {
							want = append(want, []int64{row[2]})
						}
					}
					args, b := ":a, :b", with(map[string]interface{}{"a": q.Lower, "b": q.Upper})
					if op.point {
						args = ":a"
					}
					where := fmt.Sprintf("%s x WHERE %s(x.lo, x.hi, %s)", from["s"], op.name, args)
					plan := check(fmt.Sprintf("%s %v", op.name, q), where, b, want, "x.id")
					if indexed := strings.Contains(plan, "DOMAIN INDEX S_IV"); indexed != (src.method != "") {
						t.Fatalf("%s %v: domain index used = %v:\n%s", op.name, q, indexed, plan)
					}
				}
				// A join, in both argument orders, under both strategies.
				for _, swap := range []bool{false, true} {
					var want [][]int64
					for _, x := range sRows {
						for _, y := range rRows {
							sub, qry := ivOf(x), ivOf(y)
							if swap {
								sub, qry = qry, sub
							}
							if op.point {
								qry = interval.Point(qry.Lower)
							}
							if op.holds(sub, qry) {
								want = append(want, []int64{x[2], y[2]})
							}
						}
					}
					pred := op.pred("x", "y")
					if swap {
						pred = op.pred("y", "x")
					}
					where := fmt.Sprintf("%s x, %s y WHERE %s", from["s"], from["r"], pred)
					for _, merge := range []bool{true, false} {
						e.SetMergeJoinEnabled(merge)
						check(fmt.Sprintf("%s merge=%v", pred, merge), where, binds, want, "x.id, y.id")
					}
					e.SetMergeJoinEnabled(true)
				}
				if op.point {
					continue // a point query cannot be inverted
				}
				// An inverted query interval: constant arguments, and a
				// query-side row in a join under both strategies.
				inverted := func(what, where string, b map[string]interface{}, lo, hi int64) {
					t.Helper()
					want := fmt.Sprintf("sql: %s got the inverted query interval [%d, %d]", strings.ToUpper(op.name), lo, hi)
					for _, sql := range []string{"SELECT x.id FROM " + where, "SELECT count(*) FROM " + where} {
						if _, _, err := drain(e, sql, b); err == nil || err.Error() != want {
							t.Fatalf("%s: %s: err = %v, want %q", what, sql, err, want)
						}
					}
				}
				inverted(op.name+" constant", fmt.Sprintf("%s x WHERE %s(x.lo, x.hi, 10, 5)", from["s"], op.name), binds, 10, 5)
				bad := with(map[string]interface{}{"bad": &sqldb.Transient{Cols: []string{"lo", "hi", "id"}, Rows: [][]int64{{30, 10, 9}}}})
				for _, merge := range []bool{true, false} {
					e.SetMergeJoinEnabled(merge)
					inverted(fmt.Sprintf("%s join merge=%v", op.name, merge),
						fmt.Sprintf("%s x, TABLE(:bad) y WHERE %s", from["s"], op.pred("x", "y")), bad, 30, 10)
				}
				e.SetMergeJoinEnabled(true)
			}
		})
	}
}
