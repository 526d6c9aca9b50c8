package sqldb

import (
	"strings"
	"testing"

	"ritree/internal/pagestore"
	"ritree/internal/rel"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	st := pagestore.NewMem(pagestore.Options{PageSize: 1024, CacheSize: 128})
	db, err := rel.CreateDB(st)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(db)
}

func mustExec(t *testing.T, e *Engine, sql string, binds map[string]interface{}) *Result {
	t.Helper()
	r, err := e.Exec(sql, binds)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return r
}

func TestFigure2DDL(t *testing.T) {
	// The paper's Figure 2, verbatim (modulo the id-in-index refinement of
	// §4.3 which the RI-tree layer applies).
	e := newEngine(t)
	mustExec(t, e, "CREATE TABLE Intervals (node int, lower int, upper int, id int)", nil)
	mustExec(t, e, "CREATE INDEX lowerIndex ON Intervals (node, lower)", nil)
	mustExec(t, e, "CREATE INDEX upperIndex ON Intervals (node, upper)", nil)
	if _, err := e.DB().Table("intervals"); err != nil {
		t.Fatal(err)
	}
}

func TestInsertSelectDelete(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, "CREATE TABLE t (a int, b int)", nil)
	for i := 0; i < 10; i++ {
		r := mustExec(t, e, "INSERT INTO t VALUES (:i, :j)",
			map[string]interface{}{"i": i, "j": i * 10})
		if r.Affected != 1 {
			t.Fatalf("insert affected %d", r.Affected)
		}
	}
	r := mustExec(t, e, "SELECT a, b FROM t WHERE a >= 3 AND a <= 5 ORDER BY a", nil)
	if len(r.Rows) != 3 || r.Rows[0][0] != 3 || r.Rows[2][1] != 50 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Cols[0] != "a" || r.Cols[1] != "b" {
		t.Fatalf("cols = %v", r.Cols)
	}
	r = mustExec(t, e, "DELETE FROM t WHERE a < 5", nil)
	if r.Affected != 5 {
		t.Fatalf("delete affected %d", r.Affected)
	}
	r = mustExec(t, e, "SELECT * FROM t", nil)
	if len(r.Rows) != 5 {
		t.Fatalf("remaining %d rows", len(r.Rows))
	}
}

func TestExpressionEvaluation(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, "CREATE TABLE t (a int)", nil)
	mustExec(t, e, "INSERT INTO t VALUES (7)", nil)
	r := mustExec(t, e, "SELECT a*2+1, -a, a/2, (a+1)*(a-1) FROM t", nil)
	row := r.Rows[0]
	if row[0] != 15 || row[1] != -7 || row[2] != 3 || row[3] != 48 {
		t.Fatalf("row = %v", row)
	}
	r = mustExec(t, e, "SELECT a FROM t WHERE a BETWEEN 5 AND 9 AND NOT (a = 8) AND (a <> 3 OR a = 1)", nil)
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %v", r.Rows)
	}
	r = mustExec(t, e, "SELECT a FROM t WHERE a NOT BETWEEN 5 AND 9", nil)
	if len(r.Rows) != 0 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if _, err := e.Exec("SELECT a/0 FROM t", nil); err == nil {
		t.Fatal("division by zero not reported")
	}
}

func TestIndexRangeScanUsed(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, "CREATE TABLE t (k int, v int)", nil)
	mustExec(t, e, "CREATE INDEX tk ON t (k, v)", nil)
	for i := 0; i < 2000; i++ {
		mustExec(t, e, "INSERT INTO t VALUES (:k, :v)", map[string]interface{}{"k": i, "v": -i})
	}
	// Equality + range must both be index access, not a full scan.
	r := mustExec(t, e, "EXPLAIN SELECT v FROM t WHERE k = 100", nil)
	if !strings.Contains(r.Plan, "INDEX RANGE SCAN TK") {
		t.Fatalf("plan = %s", r.Plan)
	}
	e.DB().ResetStats()
	res := mustExec(t, e, "SELECT v FROM t WHERE k = 100", nil)
	if len(res.Rows) != 1 || res.Rows[0][0] != -100 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if reads := e.DB().Stats().LogicalReads; reads > 25 {
		t.Fatalf("point lookup cost %d logical reads: index not used", reads)
	}
	// Composite: k equality plus v range.
	res = mustExec(t, e, "SELECT v FROM t WHERE k = 100 AND v >= -200", nil)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// BETWEEN drives a range scan.
	res = mustExec(t, e, "SELECT v FROM t WHERE k BETWEEN 10 AND 12", nil)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestJoinWithCollectionIterator(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, "CREATE TABLE data (grp int, val int)", nil)
	mustExec(t, e, "CREATE INDEX dg ON data (grp, val)", nil)
	for g := 0; g < 20; g++ {
		for v := 0; v < 5; v++ {
			mustExec(t, e, "INSERT INTO data VALUES (:g, :v)",
				map[string]interface{}{"g": g, "v": g*100 + v})
		}
	}
	coll := &Transient{Cols: []string{"grp"}, Rows: [][]int64{{3}, {7}, {15}}}
	r := mustExec(t, e,
		"SELECT d.val FROM TABLE(:groups) g, data d WHERE d.grp = g.grp ORDER BY val",
		map[string]interface{}{"groups": coll})
	if len(r.Rows) != 15 {
		t.Fatalf("join returned %d rows, want 15", len(r.Rows))
	}
	if r.Rows[0][0] != 300 || r.Rows[14][0] != 1504 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestFigure9QueryShapeAndPlan(t *testing.T) {
	// The final two-fold intersection statement of Figure 9, executed with
	// transient collections, and its Figure 10 plan.
	e := newEngine(t)
	mustExec(t, e, "CREATE TABLE Intervals (node int, lower int, upper int, id int)", nil)
	mustExec(t, e, "CREATE INDEX lowerIndex ON Intervals (node, lower, id)", nil)
	mustExec(t, e, "CREATE INDEX upperIndex ON Intervals (node, upper, id)", nil)
	// A miniature interval tree: root 8, intervals registered by hand.
	rows := [][]int64{
		// node, lower, upper, id
		{8, 4, 12, 1},
		{4, 2, 5, 2},
		{12, 11, 14, 3},
		{2, 1, 3, 4},
		{6, 5, 7, 5},
	}
	for _, r := range rows {
		mustExec(t, e, "INSERT INTO Intervals VALUES (:n, :l, :u, :i)",
			map[string]interface{}{"n": r[0], "l": r[1], "u": r[2], "i": r[3]})
	}
	// Query interval [5, 6]: fork path 8 -> 4 -> 5; leftNodes = {4} plus
	// the covered pair (5, 6); rightNodes = {8}.
	binds := map[string]interface{}{
		"leftnodes":  &Transient{Cols: []string{"min", "max"}, Rows: [][]int64{{4, 4}, {5, 6}}},
		"rightnodes": &Transient{Cols: []string{"node"}, Rows: [][]int64{{8}, {12}}},
		"lower":      5,
		"upper":      6,
	}
	sql := `SELECT id FROM Intervals i, TABLE(:leftNodes) l
	        WHERE i.node BETWEEN l.min AND l.max AND i.upper >= :lower
	        UNION ALL
	        SELECT id FROM Intervals i, TABLE(:rightNodes) r
	        WHERE i.node = r.node AND i.lower <= :upper`
	r := mustExec(t, e, sql, binds)
	got := map[int64]bool{}
	for _, row := range r.Rows {
		if got[row[0]] {
			t.Fatalf("duplicate id %d: the two-fold query must be duplicate-free", row[0])
		}
		got[row[0]] = true
	}
	// Intersecting [5,6]: 1 [4,12], 2 [2,5], 5 [5,7]. Not 3 [11,14], 4 [1,3].
	want := map[int64]bool{1: true, 2: true, 5: true}
	if len(got) != len(want) {
		t.Fatalf("ids = %v, want %v", got, want)
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("missing id %d in %v", id, got)
		}
	}

	// Figure 10: UNION-ALL over two NESTED LOOPS, each a COLLECTION
	// ITERATOR driving an INDEX RANGE SCAN.
	pr := mustExec(t, e, "EXPLAIN "+sql, binds)
	plan := pr.Plan
	for _, want := range []string{
		"SELECT STATEMENT", "UNION-ALL", "NESTED LOOPS",
		"COLLECTION ITERATOR :LEFTNODES", "INDEX RANGE SCAN UPPERINDEX",
		"COLLECTION ITERATOR :RIGHTNODES", "INDEX RANGE SCAN LOWERINDEX",
	} {
		if !strings.Contains(plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, plan)
		}
	}
	if strings.Count(plan, "NESTED LOOPS") != 2 {
		t.Fatalf("plan should have two NESTED LOOPS:\n%s", plan)
	}
	if strings.Contains(plan, "TABLE ACCESS FULL") {
		t.Fatalf("plan degenerated to a full scan:\n%s", plan)
	}
}

func TestFigure11ISTQuery(t *testing.T) {
	// Figure 11: the IST/D-order range query.
	e := newEngine(t)
	mustExec(t, e, "CREATE TABLE Ivs (lower int, upper int, id int)", nil)
	mustExec(t, e, "CREATE INDEX dorder ON Ivs (upper, lower, id)", nil)
	data := [][]int64{{1, 5, 1}, {3, 9, 2}, {10, 20, 3}, {0, 100, 4}}
	for _, d := range data {
		mustExec(t, e, "INSERT INTO Ivs VALUES (:l, :u, :i)",
			map[string]interface{}{"l": d[0], "u": d[1], "i": d[2]})
	}
	r := mustExec(t, e,
		"SELECT id FROM Ivs i WHERE i.upper >= :lower AND i.lower <= :upper ORDER BY id",
		map[string]interface{}{"lower": 6, "upper": 12})
	if len(r.Rows) != 3 || r.Rows[0][0] != 2 || r.Rows[1][0] != 3 || r.Rows[2][0] != 4 {
		t.Fatalf("rows = %v", r.Rows)
	}
	pr := mustExec(t, e, "EXPLAIN SELECT id FROM Ivs i WHERE i.upper >= :lower AND i.lower <= :upper",
		map[string]interface{}{"lower": 6, "upper": 12})
	if !strings.Contains(pr.Plan, "INDEX RANGE SCAN DORDER") {
		t.Fatalf("plan = %s", pr.Plan)
	}
}

func TestParseErrors(t *testing.T) {
	e := newEngine(t)
	for _, bad := range []string{
		"",
		"SELEC 1",
		"SELECT FROM t",
		"CREATE TABLE t (a int", // unclosed
		"INSERT t VALUES (1)",
		"SELECT a FROM t WHERE a ===",
		"SELECT 'str' FROM t",
		"SELECT a FROM t UNION SELECT a FROM t", // plain UNION unsupported
		"DROP VIEW v",
		"SELECT a FROM t; SELECT b FROM t",
	} {
		if _, err := e.Exec(bad, nil); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
}

func TestSemanticErrors(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, "CREATE TABLE t (a int)", nil)
	mustExec(t, e, "CREATE TABLE u (a int)", nil)
	cases := []struct {
		sql   string
		binds map[string]interface{}
	}{
		{"SELECT b FROM t", nil},                        // unknown column
		{"SELECT a FROM t, u", nil},                     // ambiguous column
		{"SELECT a FROM missing", nil},                  // unknown table
		{"SELECT a FROM t WHERE a = :x", nil},           // missing bind
		{"INSERT INTO t VALUES (1, 2)", nil},            // arity
		{"SELECT x.a FROM t", nil},                      // unknown alias
		{"SELECT a FROM t t1, t t1", nil},               // duplicate alias
		{"SELECT a FROM TABLE(:c)", nil},                // missing collection
		{"SELECT a FROM t ORDER BY zzz", nil},           // bad order key
		{"SELECT intersects(a, 1) FROM t", nil},         // unserved operator
		{"CREATE INDEX i ON t (nope)", nil},             // unknown column
		{"CREATE INDEX i ON t (a) INDEXTYPE IS x", nil}, // unknown indextype
	}
	for _, c := range cases {
		if _, err := e.Exec(c.sql, c.binds); err == nil {
			t.Errorf("no error for %q", c.sql)
		}
	}
}

func TestBindTypes(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, "CREATE TABLE t (a int)", nil)
	mustExec(t, e, "INSERT INTO t VALUES (:v)", map[string]interface{}{"v": int32(5)})
	mustExec(t, e, "INSERT INTO t VALUES (:v)", map[string]interface{}{"v": int64(6)})
	mustExec(t, e, "INSERT INTO t VALUES (:v)", map[string]interface{}{"v": 7})
	if _, err := e.Exec("INSERT INTO t VALUES (:v)", map[string]interface{}{"v": "x"}); err == nil {
		t.Fatal("string bind accepted")
	}
	r := mustExec(t, e, "SELECT a FROM t ORDER BY a", nil)
	if len(r.Rows) != 3 || r.Rows[0][0] != 5 || r.Rows[2][0] != 7 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestOrderByDescAndOrdinal(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, "CREATE TABLE t (a int, b int)", nil)
	for i := 0; i < 5; i++ {
		mustExec(t, e, "INSERT INTO t VALUES (:i, :j)", map[string]interface{}{"i": i, "j": i % 2})
	}
	r := mustExec(t, e, "SELECT b, a FROM t ORDER BY 1 DESC, a", nil)
	if r.Rows[0][0] != 1 || r.Rows[0][1] != 1 {
		t.Fatalf("rows = %v", r.Rows)
	}
	last := r.Rows[len(r.Rows)-1]
	if last[0] != 0 || last[1] != 4 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestUnionAllBranchArity(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, "CREATE TABLE t (a int, b int)", nil)
	if _, err := e.Exec("SELECT a FROM t UNION ALL SELECT a, b FROM t", nil); err == nil {
		t.Fatal("mismatched UNION ALL arity accepted")
	}
}

func TestDeleteViaIndex(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, "CREATE TABLE t (k int, v int)", nil)
	mustExec(t, e, "CREATE INDEX tk ON t (k)", nil)
	for i := 0; i < 500; i++ {
		mustExec(t, e, "INSERT INTO t VALUES (:k, :v)", map[string]interface{}{"k": i, "v": i})
	}
	e.DB().ResetStats()
	r := mustExec(t, e, "DELETE FROM t WHERE k = 123", nil)
	if r.Affected != 1 {
		t.Fatalf("affected %d", r.Affected)
	}
	if reads := e.DB().Stats().LogicalReads; reads > 40 {
		t.Fatalf("indexed delete cost %d logical reads", reads)
	}
	r = mustExec(t, e, "SELECT v FROM t WHERE k = 123", nil)
	if len(r.Rows) != 0 {
		t.Fatal("row still present")
	}
}

func TestCommentsAndCase(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, `create table T (A int) -- trailing comment`, nil)
	mustExec(t, e, `/* leading */ INSERT INTO t VALUES (1)`, nil)
	r := mustExec(t, e, "select A from T where a = 1", nil)
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

// FuzzParse feeds arbitrary text to the lexer and parser: both must
// answer with a statement or an error, never a panic.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"CREATE TABLE t (a int, b int)",
		"CREATE INDEX tk ON t (k, v)",
		"CREATE INDEX iv ON t (lo, hi) INDEXTYPE IS ritree",
		"CREATE COLLECTION c USING hint WITH (bits = 20, levels = 10)",
		"DROP COLLECTION c",
		"DROP INDEX t_a",
		"DROP TABLE t",
		"INSERT INTO t VALUES (:lo, -:hi, 3 * (2 + 1))",
		"DELETE FROM t WHERE a < 5 AND NOT b = 2",
		"BEGIN", "COMMIT", "ROLLBACK",
		"SELECT * FROM t WHERE a BETWEEN 1 AND 10 OR a NOT BETWEEN :x AND :y",
		"SELECT DISTINCT x.a, y.* FROM t x, u y WHERE x.a = y.a ORDER BY 1 DESC, a LIMIT :n",
		"SELECT id FROM iv WHERE intersects(lower, upper, :a, :b) LIMIT 10",
		"SELECT count(*) FROM a x, b y WHERE allen_overlaps(x.lo, x.hi, y.lo, y.hi)",
		"SELECT grp, count(*), sum(v), min(v), max(v) AS m FROM g GROUP BY grp ORDER BY 1",
		"SELECT id FROM t, TABLE(:leftNodes) l WHERE t.node BETWEEN l.min AND l.max UNION ALL SELECT id FROM t WHERE contains_point(lo, hi, :p)",
		"EXPLAIN SELECT a FROM t WHERE a = :x",
		"EXPLAIN ANALYZE SELECT a/0 FROM t",
		"SELECT a FROM t WHERE a ===",
		"SELECT 'str' FROM t",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = Parse(src)
		_, _ = BindNames(src)
	})
}
