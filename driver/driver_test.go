package driver_test

import (
	"bufio"
	"context"
	"database/sql"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ritree"
	ritreedriver "ritree/driver"
	"ritree/internal/server"
	"ritree/internal/wire"
)

// startServer boots an in-process riserver on a loopback port and
// returns the hosting DB (for direct metric assertions) and a DSN.
func startServer(t *testing.T) (*ritree.DB, string) {
	t.Helper()
	rdb, err := ritree.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(rdb, server.Options{Logf: t.Logf})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		rdb.Close()
	})
	return rdb, "tcp://" + ln.Addr().String()
}

func openSQL(t *testing.T, dsn string) *sql.DB {
	t.Helper()
	db, err := sql.Open("ritree", dsn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func mustExecSQL(t *testing.T, db *sql.DB, q string, args ...interface{}) sql.Result {
	t.Helper()
	res, err := db.Exec(q, args...)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

func collect(t *testing.T, rows *sql.Rows) [][]int64 {
	t.Helper()
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	var out [][]int64
	for rows.Next() {
		vals := make([]int64, len(cols))
		ptrs := make([]interface{}, len(cols))
		for i := range vals {
			ptrs[i] = &vals[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			t.Fatal(err)
		}
		out = append(out, vals)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// seed loads the same interval fixture through any DSN.
func seed(t *testing.T, db *sql.DB) {
	t.Helper()
	mustExecSQL(t, db, "CREATE TABLE iv (lower int, upper int, id int)")
	mustExecSQL(t, db, "CREATE INDEX iv_ix ON iv (lower, upper) INDEXTYPE IS ritree")
	stmt, err := db.Prepare("INSERT INTO iv VALUES (:lo, :hi, :id)")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	for i := 0; i < 200; i++ {
		lo := int64(i * 3)
		if _, err := stmt.Exec(lo, lo+int64(i%17)+1, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDriverBasicsEveryDSN(t *testing.T) {
	_, remoteDSN := startServer(t)
	// Subtests are named by scheme, not by DSN: the remote DSN carries an
	// ephemeral port, which would give the subtest a new name every run.
	for _, tc := range []struct{ name, dsn string }{
		{"mem://", "mem://"},
		{"tcp://loopback", remoteDSN},
	} {
		dsn := tc.dsn
		t.Run(tc.name, func(t *testing.T) {
			db := openSQL(t, dsn)
			if err := db.Ping(); err != nil {
				t.Fatal(err)
			}
			seed(t, db)

			// Positional args map to bind names in first-appearance order.
			rows, err := db.Query("SELECT id FROM iv WHERE lower >= :a AND upper <= :b ORDER BY id", 30, 90)
			if err != nil {
				t.Fatal(err)
			}
			got := collect(t, rows)
			if len(got) == 0 {
				t.Fatal("no rows")
			}
			// Named args work too and give the same result.
			rows, err = db.Query("SELECT id FROM iv WHERE lower >= :a AND upper <= :b ORDER BY id",
				sql.Named("a", 30), sql.Named("b", 90))
			if err != nil {
				t.Fatal(err)
			}
			if named := collect(t, rows); fmt.Sprint(named) != fmt.Sprint(got) {
				t.Fatalf("named args disagree: %v vs %v", named, got)
			}

			// DML result counts.
			res := mustExecSQL(t, db, "DELETE FROM iv WHERE id = :id", 0)
			if n, _ := res.RowsAffected(); n != 1 {
				t.Fatalf("affected = %d", n)
			}

			// EXPLAIN through Query: one text "plan" column.
			var plan string
			prows, err := db.Query("EXPLAIN SELECT id FROM iv WHERE intersects(lower, upper, 10, 20)")
			if err != nil {
				t.Fatal(err)
			}
			for prows.Next() {
				var line string
				if err := prows.Scan(&line); err != nil {
					t.Fatal(err)
				}
				plan += line + "\n"
			}
			prows.Close()
			if !strings.Contains(plan, "SELECT STATEMENT") {
				t.Fatalf("EXPLAIN plan missing header:\n%s", plan)
			}

			// Unsupported bind types error cleanly.
			if _, err := db.Query("SELECT id FROM iv WHERE id = :x", "nope"); err == nil {
				t.Fatal("string bind accepted")
			}
		})
	}
}

// TestRemoteEmbeddedParity runs the same statements against the wire and
// against the server's own DB embedded, asserting identical rows —
// including every ALLEN_* operator.
func TestRemoteEmbeddedParity(t *testing.T) {
	rdb, dsn := startServer(t)
	db := openSQL(t, dsn)
	seed(t, db)

	queries := []string{
		"SELECT id FROM iv WHERE intersects(lower, upper, 100, 160) ORDER BY id",
		"SELECT count(*) FROM iv",
		"SELECT id, upper FROM iv WHERE lower >= :a ORDER BY upper DESC, id LIMIT 10",
		"SELECT DISTINCT upper FROM iv WHERE lower < :a ORDER BY upper",
		"SELECT id FROM iv WHERE id < 5 UNION ALL SELECT id FROM iv WHERE id >= 195 ORDER BY id",
	}
	for _, op := range []string{
		"equals", "before", "after", "meets", "met_by",
		"overlaps", "overlapped_by", "during", "contains",
		"starts", "started_by", "finishes", "finished_by",
	} {
		queries = append(queries,
			fmt.Sprintf("SELECT id FROM iv WHERE allen_%s(lower, upper, 99, 111) ORDER BY id", op))
	}

	for _, q := range queries {
		var args []interface{}
		binds := map[string]interface{}{}
		if strings.Contains(q, ":a") {
			args = append(args, 150)
			binds["a"] = int64(150)
		}
		rows, err := db.Query(q, args...)
		if err != nil {
			t.Fatalf("wire %s: %v", q, err)
		}
		gotWire := collect(t, rows)

		erows, err := rdb.Query(context.Background(), q, binds)
		if err != nil {
			t.Fatalf("embedded %s: %v", q, err)
		}
		var gotEmb [][]int64
		for erows.Next() {
			row := erows.Row()
			cp := make([]int64, len(row))
			copy(cp, row)
			gotEmb = append(gotEmb, cp)
		}
		if err := erows.Err(); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(gotWire) != fmt.Sprint(gotEmb) {
			t.Fatalf("%s: wire %v != embedded %v", q, gotWire, gotEmb)
		}
	}
}

// TestLimitStopsServerScan asserts the wire path keeps streaming
// semantics: a LIMIT-3 SELECT over 200 rows does O(3) leaf work
// server-side, not a full materialization.
func TestLimitStopsServerScan(t *testing.T) {
	rdb, dsn := startServer(t)
	db := openSQL(t, dsn)
	seed(t, db)

	before := rdb.Metrics().Counter("sql.leaf_rows")
	rows, err := db.Query("SELECT id FROM iv LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, rows)
	leaf := rdb.Metrics().Counter("sql.leaf_rows") - before
	if len(got) != 3 {
		t.Fatalf("rows = %d", len(got))
	}
	if leaf >= 200 {
		t.Fatalf("LIMIT 3 scanned %d leaf rows server-side", leaf)
	}
}

// TestCancellationReleasesCursor cancels a streaming query mid-stream
// and asserts the server-side cursor — and with it the pinned snapshot
// view — is released (sql.views.active drains to <= 1: the engine keeps
// at most the cached current view).
func TestCancellationReleasesCursor(t *testing.T) {
	rdb, dsn := startServer(t)
	db := openSQL(t, dsn)
	seed(t, db)

	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryContext(ctx, "SELECT id FROM iv")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no first row")
	}
	cancel()
	rows.Close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		if active := rdb.Metrics().Gauges["sql.views.active"]; active <= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("views still pinned after cancel: %d",
				rdb.Metrics().Gauges["sql.views.active"])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPreparedReuseAcrossTransactions reuses one prepared statement
// inside and outside transactions and asserts the server's plan cache
// served the repeats.
func TestPreparedReuseAcrossTransactions(t *testing.T) {
	rdb, dsn := startServer(t)
	db := openSQL(t, dsn)
	db.SetMaxOpenConns(1) // keep one session so the txn and stmt share it
	seed(t, db)

	stmt, err := db.Prepare("SELECT id FROM iv WHERE lower >= :a ORDER BY id LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()

	runOnce := func(q func(args ...interface{}) (*sql.Rows, error)) int {
		rows, err := q(60)
		if err != nil {
			t.Fatal(err)
		}
		return len(collect(t, rows))
	}

	n1 := runOnce(stmt.Query)
	hits0, _, _, _ := rdb.PlanCacheStats()

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	n2 := runOnce(tx.Stmt(stmt).Query)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	n3 := runOnce(stmt.Query)
	if n1 != 5 || n2 != 5 || n3 != 5 {
		t.Fatalf("row counts %d/%d/%d", n1, n2, n3)
	}
	hits1, _, _, _ := rdb.PlanCacheStats()
	if hits1 <= hits0 {
		t.Fatalf("prepared reuse missed the plan cache: hits %d -> %d", hits0, hits1)
	}
}

// conflictingCommit provokes a first-committer-wins conflict through db
// and returns the error of its COMMIT. SQL writes join the open
// transaction, so the conflicting writer is a programmatic collection
// insert on rdb — exactly the auto-commit path the engine's check
// detects.
func conflictingCommit(t *testing.T, db *sql.DB, rdb *ritree.DB) error {
	t.Helper()
	col, err := rdb.CreateCollection("resv")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO resv VALUES (30, 40, 2)"); err != nil {
		t.Fatal(err)
	}
	if err := col.Insert(ritree.NewInterval(50, 60), 3); err != nil {
		t.Fatal(err)
	}
	return tx.Commit()
}

// embeddedConflict is conflictingCommit through the mem:// DSN, with the
// native DB reached through Connector.DB for the concurrent writer.
func embeddedConflict(t *testing.T) error {
	t.Helper()
	connector, err := (&ritreedriver.Driver{}).OpenConnector("mem://")
	if err != nil {
		t.Fatal(err)
	}
	db := sql.OpenDB(connector)
	t.Cleanup(func() { db.Close() })
	rdb, err := connector.(*ritreedriver.Connector).DB()
	if err != nil {
		t.Fatal(err)
	}
	return conflictingCommit(t, db, rdb)
}

// TestTxnConflictOverWire provokes a first-committer-wins conflict and
// asserts the database/sql error satisfies errors.Is(ritree.ErrTxnConflict)
// through the wire, with the same text as the embedded error.
func TestTxnConflictOverWire(t *testing.T) {
	rdb, dsn := startServer(t)
	db := openSQL(t, dsn)
	db.SetMaxOpenConns(2)
	seed(t, db)
	err := conflictingCommit(t, db, rdb)
	if !errors.Is(err, ritree.ErrTxnConflict) {
		t.Fatalf("commit error = %v, want ErrTxnConflict", err)
	}
	if want := embeddedConflict(t); err.Error() != want.Error() {
		t.Fatalf("remote conflict reads %q, embedded %q", err, want)
	}
}

// TestEmbeddedTxnConflict: the same conflict through the mem:// DSN.
func TestEmbeddedTxnConflict(t *testing.T) {
	if err := embeddedConflict(t); !errors.Is(err, ritree.ErrTxnConflict) {
		t.Fatalf("commit error = %v, want ErrTxnConflict", err)
	}
}

// TestConcurrentConnections interleaves readers and writers over many
// wire connections (run under -race in CI).
func TestConcurrentConnections(t *testing.T) {
	_, dsn := startServer(t)
	db := openSQL(t, dsn)
	db.SetMaxOpenConns(8)
	seed(t, db)

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) { // reader
			defer wg.Done()
			for i := 0; i < 25; i++ {
				rows, err := db.Query("SELECT id FROM iv WHERE lower >= :a LIMIT 7", g*10+i)
				if err != nil {
					errCh <- err
					return
				}
				rows.Close()
			}
		}(g)
		go func(g int) { // writer
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := int64(10000 + g*100 + i)
				if _, err := db.Exec("INSERT INTO iv VALUES (:lo, :hi, :id)", id, id+5, id); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	var n int64
	if err := db.QueryRow("SELECT count(*) FROM iv").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 200+4*25 {
		t.Fatalf("count = %d, want %d", n, 200+4*25)
	}
}

// TestServerMetricsViaRaw reaches ServerMetrics through sql.Conn.Raw —
// the path risql -connect's \metrics uses.
func TestServerMetricsViaRaw(t *testing.T) {
	_, dsn := startServer(t)
	db := openSQL(t, dsn)
	seed(t, db)

	conn, err := db.Conn(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var js string
	err = conn.Raw(func(dc interface{}) error {
		mf, ok := dc.(ritreedriver.MetricsFetcher)
		if !ok {
			return fmt.Errorf("conn does not implement MetricsFetcher")
		}
		var merr error
		js, merr = mf.ServerMetrics()
		return merr
	})
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(js), &snap); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, js)
	}
	if snap.Counters["server.connections"] == 0 {
		t.Fatalf("no server.connections in %s", js)
	}
}

// TestSessionTeardownMidStream kills a raw TCP connection with an open
// cursor and an open transaction, then asserts the server released the
// pinned snapshot views and freed the engine's transaction slot.
func TestSessionTeardownMidStream(t *testing.T) {
	rdb, dsn := startServer(t)
	db := openSQL(t, dsn)
	seed(t, db)

	// Speak the protocol by hand so we can sever the socket mid-stream.
	conn, err := net.Dial("tcp", strings.TrimPrefix(dsn, "tcp://"))
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	send := func(typ byte, payload []byte) (byte, []byte) {
		t.Helper()
		if err := wire.WriteFrame(conn, typ, payload); err != nil {
			t.Fatal(err)
		}
		rtyp, rp, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if rtyp == wire.MsgErr {
			t.Fatalf("server error: %v", wire.DecodeErr(rp))
		}
		return rtyp, rp
	}
	send(wire.MsgHello, wire.AppendUvarint(nil, wire.ProtoVersion))
	send(wire.MsgExec, wire.AppendBinds(wire.AppendString(nil, "BEGIN"), nil))
	b := wire.AppendString(nil, "SELECT id FROM iv")
	b = wire.AppendBinds(b, nil)
	send(wire.MsgQuery, b)
	// One bounded fetch so the cursor is genuinely mid-stream.
	fb := wire.AppendUvarint(nil, 1)
	fb = wire.AppendUvarint(fb, 4)
	send(wire.MsgFetch, fb)

	pinnedBefore := rdb.Metrics().Gauges["sql.views.active"]
	if pinnedBefore < 1 {
		t.Fatalf("expected a pinned view mid-stream, gauge = %d", pinnedBefore)
	}
	conn.Close() // sever mid-stream: teardown must clean up

	deadline := time.Now().Add(2 * time.Second)
	for {
		views := rdb.Metrics().Gauges["sql.views.active"]
		// The transaction slot is free once a new BEGIN succeeds.
		_, berr := rdb.Exec("BEGIN", nil)
		if berr == nil {
			rdb.Exec("ROLLBACK", nil)
		}
		if views <= 1 && berr == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("teardown leaked: views=%d beginErr=%v", views, berr)
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = db
}

// TestGracefulShutdownDrains shuts a server down while sessions hold
// open cursors and asserts Shutdown returns with the database quiescent.
func TestGracefulShutdownDrains(t *testing.T) {
	rdb, err := ritree.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	srv := server.New(rdb, server.Options{Logf: t.Logf})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	db := openSQL(t, "tcp://"+ln.Addr().String())
	mustExecSQL(t, db, "CREATE TABLE t (a int)")
	for i := 0; i < 50; i++ {
		mustExecSQL(t, db, "INSERT INTO t VALUES (:a)", i)
	}
	rows, err := db.Query("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no rows")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal(err)
	}
	rows.Close()
	if views := rdb.Metrics().Gauges["sql.views.active"]; views > 1 {
		t.Fatalf("views pinned after shutdown: %d", views)
	}
}
