package main

import (
	"strings"
	"testing"

	"ritree/internal/obs"
	"ritree/internal/pagestore"
	"ritree/internal/rel"
	"ritree/internal/sqldb"
)

func TestSplitStatement(t *testing.T) {
	cases := []struct {
		in         string
		stmt, rest string
		ok         bool
	}{
		{"SELECT 1;\n", "SELECT 1;", "\n", true},
		{"SELECT 1; SELECT 2;\n", "SELECT 1;", " SELECT 2;\n", true},
		{"SELECT 1", "", "", false},
		{"-- c;omment\nSELECT 1;\n", "-- c;omment\nSELECT 1;", "\n", true},
		{"SELECT /* ; */ 1;\n", "SELECT /* ; */ 1;", "\n", true},
		{"SELECT /* unterminated ;\n", "", "", false},
		{"SELECT 1; -- trailing\n", "SELECT 1;", " -- trailing\n", true},
	}
	for _, c := range cases {
		stmt, rest, ok := splitStatement(c.in)
		if stmt != c.stmt || rest != c.rest || ok != c.ok {
			t.Errorf("splitStatement(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.in, stmt, rest, ok, c.stmt, c.rest, c.ok)
		}
	}
}

func TestBlankSQL(t *testing.T) {
	for _, s := range []string{"", "  \n\t", " -- note\n", "/* done */\n", "-- a\n-- b\n"} {
		if !blankSQL(s) {
			t.Errorf("blankSQL(%q) = false, want true", s)
		}
	}
	for _, s := range []string{"SELECT", " x -- note\n", "/* open", "1;"} {
		if blankSQL(s) {
			t.Errorf("blankSQL(%q) = true, want false", s)
		}
	}
}

// TestRunStatement runs DDL, an INSERT, a BEGIN … COMMIT pair, a SELECT,
// a SELECT that fails mid-stream and an EXPLAIN through runStatement on
// one session, checking what each prints and that each parses its text
// exactly once.
func TestRunStatement(t *testing.T) {
	db, err := rel.CreateDB(pagestore.NewMem(pagestore.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	eng := sqldb.NewEngine(db)
	reg := obs.NewRegistry()
	eng.SetMetricsRegistry(reg)
	sess := eng.NewSession()
	defer sess.Close()
	for _, c := range []struct{ stmt, out string }{
		{"CREATE TABLE t (id int, lo int, hi int);", "ok (0 rows affected)\n"},
		{"INSERT INTO t VALUES (1, 10, 20);", "ok (1 rows affected)\n"},
		{"BEGIN;", "ok (0 rows affected)\n"},
		{"INSERT INTO t VALUES (2, 30, 40);", "ok (1 rows affected)\n"},
		{"COMMIT;", "ok (1 rows affected)\n"},
		{"SELECT id, lo FROM t WHERE lo >= 0;",
			"id            lo          \n1             10          \n2             30          \n(2 rows)\n"},
		{"SELECT id FROM t WHERE id = 1 / 0;", "id          \nerror: sql: division by zero\n"},
		{"EXPLAIN SELECT id FROM t;", "SELECT STATEMENT\n  TABLE ACCESS FULL T\n"},
	} {
		before := reg.Snapshot().Counters["sql.parses"]
		var out strings.Builder
		runStatement(&out, sess, c.stmt)
		if out.String() != c.out {
			t.Errorf("%s printed %q, want %q", c.stmt, out.String(), c.out)
		}
		if n := reg.Snapshot().Counters["sql.parses"] - before; n != 1 {
			t.Errorf("%s parsed %d times, want 1", c.stmt, n)
		}
	}
}
