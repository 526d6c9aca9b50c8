// Command risql is an interactive SQL shell over the reproduction's
// embedded relational engine — handy for poking at the RI-tree's relations
// the way the paper's DBA would through SQL*Plus.
//
//	risql [-db file.pages]
//
// The session pre-registers the ritree, hint and hint_sharded indextypes,
// so the §5 path works end to end with any access method — the
// disk-relational RI-tree or the main-memory HINT variants:
//
//	sql> CREATE TABLE resv (room int, arrival int, departure int);
//	sql> CREATE INDEX resv_iv ON resv (arrival, departure) INDEXTYPE IS ritree;
//	sql> CREATE INDEX resv_mm ON resv (arrival, departure) INDEXTYPE IS hint;
//	sql> INSERT INTO resv VALUES (1, 10, 20);
//	sql> SELECT room FROM resv WHERE intersects(arrival, departure, 15, 18);
//	sql> EXPLAIN SELECT room FROM resv WHERE intersects(arrival, departure, 15, 18);
//
// Named interval collections (the unified-API shape: a (lower, upper, id)
// relation plus its access-method domain index) are first-class
// statements:
//
//	sql> CREATE COLLECTION flights USING hint;
//	sql> INSERT INTO flights VALUES (10, 20, 1);
//	sql> SELECT id FROM flights WHERE intersects(lower, upper, 15, 18);
//	sql> DROP COLLECTION flights;
//
// \collections lists them with their access methods.
//
// Reopening a persisted database (risql -db f.pages on an existing file)
// re-attaches every domain index recorded in the catalog before the first
// prompt: ritree indexes reopen their hidden relations (verified against
// the base table), hint indexes adopt their persisted snapshot and replay
// the heap tail written since (rebuilding only without a trustworthy
// snapshot). A definition whose
// indextype cannot be attached aborts the session rather than silently
// serving DML without index maintenance.
//
// SELECT results stream: rows print as the executor pipeline produces
// them (a LIMIT stops the underlying index scan early). The §4.5
// fine-grained operators are available as ALLEN_<relation>(lower, upper,
// qlo, qhi) on any access method; \help lists all thirteen.
//
// Transactions work as in the engine: BEGIN; buffers INSERT/DELETE and
// answers reads from the BEGIN snapshot, COMMIT; applies them with
// first-committer-wins conflict detection, ROLLBACK; discards.
// \begin, \commit and \rollback are shorthands for the SQL statements.
// File-backed sessions (-db) write ahead to a <file>.wal sidecar exactly
// like the public API, so a crashed session replays its committed tail on
// the next open.
//
// Meta commands: \tables, \collections, \begin/\commit/\rollback,
// \stats, \reset (zero I/O counters), \metrics (the session's metrics
// registry: executor counters, per-statement-kind latency histograms,
// page-store I/O, WAL commit/fsync and transaction conflict counters
// (wal.*, txn.*), and each domain index's family), \slow [dur] (arm the
// slow-query trace log at the given threshold, or drain and print the
// captured statements with their operator stats), \help (operator
// table), \q.
// EXPLAIN ANALYZE SELECT ... executes the statement and prints the
// per-operator tree annotated with rows, leaf rows, probes and wall
// time.
// Statements end with a semicolon and may span lines; several statements
// may share a line. Bind variables are not available in the shell; inline
// the values.
package main

import (
	"bufio"
	"bytes"
	"context"
	"database/sql"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	ritreedriver "ritree/driver"
	"ritree/internal/hint"
	"ritree/internal/obs"
	"ritree/internal/pagestore"
	"ritree/internal/rel"
	"ritree/internal/ritree"
	"ritree/internal/sqldb"
)

func main() {
	dbPath := flag.String("db", "", "page file to open or create (default: in-memory)")
	connect := flag.String("connect", "", "connect to a riserver (tcp://host:port) instead of opening a local database")
	repair := flag.Bool("repair", false, "skip domain-index auto-attach on open (recovery mode: DML will NOT maintain domain indexes; DROP INDEX broken definitions, then reopen normally)")
	flag.Parse()

	if *connect != "" {
		if err := runRemote(*connect); err != nil {
			fmt.Fprintln(os.Stderr, "risql:", err)
			os.Exit(1)
		}
		return
	}

	var st *pagestore.Store
	var db *rel.DB
	var err error
	reopened := false
	if *dbPath == "" {
		st = pagestore.NewMem(pagestore.Options{})
		db, err = rel.CreateDB(st)
	} else {
		var be *pagestore.FileBackend
		be, err = pagestore.OpenFileBackend(*dbPath, pagestore.DefaultPageSize)
		if err == nil {
			// Same durability wiring as the public DB API: a sidecar WAL
			// whose committed tail replays into the page file on open, so
			// a risql session survives a crash mid-commit.
			var wal *pagestore.FileWAL
			wal, err = pagestore.OpenFileWAL(*dbPath + ".wal")
			if err == nil {
				st, err = pagestore.New(be, pagestore.Options{WAL: wal})
			}
		}
		if err == nil {
			if st.NumAllocated() == 0 {
				db, err = rel.CreateDB(st)
			} else {
				db, err = rel.OpenDB(st, 1)
				reopened = true
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "risql:", err)
		os.Exit(1)
	}
	defer db.Close()

	// One metrics registry per session: page-store I/O, executor counters
	// and per-kind latency histograms, and each attached domain index's
	// family all publish into it (\metrics prints it, \slow arms the
	// slow-query trace log).
	reg := obs.NewRegistry()
	st.SetMetrics(reg, "pagestore")
	eng := sqldb.NewEngine(db)
	eng.SetMetricsRegistry(reg)
	ritree.RegisterIndexType(eng)
	hint.RegisterIndexType(eng)
	hint.RegisterShardedIndexType(eng, 0)
	switch {
	case reopened && *repair:
		fmt.Println("REPAIR MODE: domain indexes are NOT attached — DML will not maintain them.")
		fmt.Println("DROP INDEX the broken definitions below, then reopen without -repair:")
		for _, def := range db.CustomIndexes() {
			fmt.Printf("  %s (%s) on %s %v\n", def.Name, def.IndexType, def.Table, def.Columns)
		}
	case reopened:
		// Re-attach every domain index recorded in the catalog before any
		// statement runs: a session without them would silently skip index
		// maintenance and corrupt the persisted index storage.
		if err := eng.AttachCatalogIndexes(); err != nil {
			fmt.Fprintln(os.Stderr, "risql:", err)
			fmt.Fprintln(os.Stderr, "risql: reopen with -repair to DROP INDEX the broken definition")
			os.Exit(1)
		}
		for _, def := range db.CustomIndexes() {
			fmt.Printf("attached domain index %s (%s) on %s %v\n",
				def.Name, def.IndexType, def.Table, def.Columns)
		}
	}

	fmt.Println("risql — SQL shell over the RI-tree reproduction engine")
	fmt.Println(`type SQL ending with ';', or \tables \collections \begin \commit \rollback \stats \metrics \slow \reset \help \q`)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("sql> ")
		} else {
			fmt.Print("  -> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			cmd, arg := trimmed, ""
			if i := strings.IndexAny(trimmed, " \t"); i >= 0 {
				cmd, arg = trimmed[:i], strings.TrimSpace(trimmed[i:])
			}
			switch cmd {
			case `\q`, `\quit`:
				return
			case `\tables`:
				for _, t := range db.Tables() {
					tab, _ := db.Table(t)
					fmt.Printf("  %-24s %8d rows, columns %v\n", t, tab.RowCount(), tab.Schema().Columns)
				}
			case `\collections`:
				cols := eng.Collections()
				if len(cols) == 0 {
					fmt.Println("  (none — CREATE COLLECTION name USING method)")
				}
				for _, ci := range cols {
					rows := int64(0)
					if tab, err := db.Table(ci.Name); err == nil {
						rows = tab.RowCount()
					}
					fmt.Printf("  %-24s %-14s %8d intervals\n", ci.Name, ci.Method, rows)
				}
			case `\stats`:
				s := db.Stats()
				fmt.Printf("  logical reads:   %d\n  physical reads:  %d\n  physical writes: %d\n",
					s.LogicalReads, s.PhysicalReads, s.PhysicalWrites)
			case `\reset`:
				db.ResetStats()
				fmt.Println("  counters zeroed")
			case `\begin`, `\commit`, `\rollback`:
				// Passthrough to the SQL transaction statements, for
				// symmetry with other shells; BEGIN; / COMMIT; /
				// ROLLBACK; typed as SQL work identically.
				runStatement(eng, strings.ToUpper(cmd[1:])+";")
			case `\metrics`:
				printMetrics(reg)
			case `\slow`:
				runSlow(eng, arg)
			case `\help`:
				printHelp()
			default:
				fmt.Println(`  unknown command; try \tables \collections \begin \commit \rollback \stats \metrics \slow \reset \help \q`)
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		// Execute statement by statement: split at each semicolon (outside
		// comments) and feed the remainder back into the buffer, so several
		// statements on one line run in order and a trailing comment does
		// not ride along into the executed text.
		for {
			stmt, rest, ok := splitStatement(buf.String())
			if !ok {
				break
			}
			buf.Reset()
			buf.WriteString(rest)
			if !blankSQL(strings.TrimSuffix(stmt, ";")) {
				runStatement(eng, stmt)
			}
		}
		if blankSQL(buf.String()) {
			buf.Reset()
		}
		prompt()
	}
}

// skipComment, when a -- line comment or /* block comment */ starts at
// s[i], returns the index just past it. unterminated reports a block
// comment with no closing */ (the caller keeps buffering input). The
// comment grammar mirrors the engine lexer's skipSpaceAndComments
// (internal/sqldb/lexer.go) and must be kept in step with it; the split
// is lenient where the lexer is strict (it must work on half-typed
// input), which is why it does not reuse the lexer directly. If the
// dialect ever gains string literals, quote state must be added here too.
func skipComment(s string, i int) (next int, isComment, unterminated bool) {
	switch {
	case s[i] == '-' && i+1 < len(s) && s[i+1] == '-':
		for i < len(s) && s[i] != '\n' {
			i++
		}
		return i, true, false
	case s[i] == '/' && i+1 < len(s) && s[i+1] == '*':
		end := strings.Index(s[i+2:], "*/")
		if end < 0 {
			return len(s), true, true
		}
		return i + 2 + end + 2, true, false
	}
	return i, false, false
}

// splitStatement splits s at the first semicolon that is not inside a
// comment, returning the statement text (semicolon included) and the
// remainder.
func splitStatement(s string) (stmt, rest string, ok bool) {
	for i := 0; i < len(s); {
		if j, isC, unterm := skipComment(s, i); isC {
			if unterm {
				return "", "", false
			}
			i = j
			continue
		}
		if s[i] == ';' {
			return s[:i+1], s[i+1:], true
		}
		i++
	}
	return "", "", false
}

// blankSQL reports whether s holds no statement text: only whitespace and
// complete comments (e.g. the tail left after "SELECT 1; -- note"). An
// unterminated block comment is not blank — it is still being buffered.
func blankSQL(s string) bool {
	for i := 0; i < len(s); {
		if j, isC, unterm := skipComment(s, i); isC {
			if unterm {
				return false
			}
			i = j
			continue
		}
		if s[i] != ' ' && s[i] != '\t' && s[i] != '\n' && s[i] != '\r' {
			return false
		}
		i++
	}
	return true
}

func runStatement(eng *sqldb.Engine, stmt string) {
	// SELECTs stream through the cursor: each row prints as the pipeline
	// produces it, so a long scan shows progress immediately and a LIMIT
	// stops the underlying index scan early.
	if st, err := sqldb.Parse(stmt); err == nil {
		if _, isSelect := st.(*sqldb.SelectStmt); isSelect {
			rows, err := eng.Query(context.Background(), stmt, nil)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			defer rows.Close()
			for i, c := range rows.Columns() {
				if i > 0 {
					fmt.Print("  ")
				}
				fmt.Printf("%-12s", c)
			}
			fmt.Println()
			n := 0
			for rows.Next() {
				for i, v := range rows.Row() {
					if i > 0 {
						fmt.Print("  ")
					}
					fmt.Printf("%-12d", v)
				}
				fmt.Println()
				n++
			}
			if err := rows.Err(); err != nil {
				fmt.Println("error:", err)
				return
			}
			fmt.Printf("(%d rows)\n", n)
			return
		}
	}
	res, err := eng.Exec(stmt, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	switch {
	case res.Plan != "":
		fmt.Print(res.Plan)
	default:
		fmt.Printf("ok (%d rows affected)\n", res.Affected)
	}
}

// printMetrics dumps the session's metrics registry (\metrics): counters
// sorted by name, then the latency histograms with their quantiles.
func printMetrics(reg *obs.Registry) {
	s := reg.Snapshot()
	if len(s.Counters) == 0 && len(s.Histograms) == 0 {
		fmt.Println("  (no metrics recorded yet)")
		return
	}
	for _, name := range s.CounterNames() {
		fmt.Printf("  %-40s %12d\n", name, s.Counters[name])
	}
	hists := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hists = append(hists, name)
	}
	sort.Strings(hists)
	for _, name := range hists {
		h := s.Histograms[name]
		fmt.Printf("  %-40s count=%d p50=%s p95=%s p99=%s max=%s\n",
			name, h.Count, time.Duration(h.P50), time.Duration(h.P95),
			time.Duration(h.P99), time.Duration(h.Max))
	}
}

// runSlow implements \slow: with a duration argument it arms the
// slow-query threshold; bare it drains and prints the captured ring.
func runSlow(eng *sqldb.Engine, arg string) {
	if arg != "" {
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			fmt.Printf("  bad duration %q; try \\slow 100ms (0 disables)\n", arg)
			return
		}
		eng.SetSlowQueryThreshold(d)
		if d == 0 {
			fmt.Println("  slow-query capture disabled")
		} else {
			fmt.Printf("  capturing statements taking >= %s\n", d)
		}
		return
	}
	slow := eng.SlowQueries()
	if len(slow) == 0 {
		if eng.SlowQueryThreshold() == 0 {
			fmt.Println(`  (capture disarmed — \slow 100ms to arm)`)
		} else {
			fmt.Println("  (no slow queries captured)")
		}
		return
	}
	for _, sq := range slow {
		fmt.Printf("  [%s] %s  binds=%d  leaf=%d rows=%d\n    %s\n",
			sq.When.Format("15:04:05.000"), sq.Duration, sq.Binds,
			sq.Stats.LeafRows, sq.Stats.RowsOut, strings.TrimSpace(sq.SQL))
		if sq.Plan.Label != "" {
			for _, line := range strings.Split(strings.TrimRight(sq.Plan.Render(), "\n"), "\n") {
				fmt.Println("    " + line)
			}
		}
	}
}

// printHelp lists the interval operators the engine serves (\help).
func printHelp() {
	fmt.Println("  interval operators (an intersection scan on any domain index, a plain predicate without one):")
	fmt.Println("    INTERSECTS(lower, upper, qlo, qhi)      rows whose interval intersects [qlo, qhi]")
	fmt.Println("    CONTAINS_POINT(lower, upper, p)         rows whose interval contains p")
	fmt.Println("  Allen §4.5 operators, ALLEN_<relation>(lower, upper, qlo, qhi) — row interval")
	fmt.Println("  <relation> query interval; planned as an INTERSECTS scan over the relation's")
	fmt.Println("  generating region plus an exact residual, on every access method:")
	names := sqldb.AllenOperatorNames()
	for i := 0; i < len(names); i += 4 {
		end := i + 4
		if end > len(names) {
			end = len(names)
		}
		fmt.Print("   ")
		for _, n := range names[i:end] {
			fmt.Printf(" %-22s", strings.ToUpper(n))
		}
		fmt.Println()
	}
	fmt.Println("  SELECT supports DISTINCT, ORDER BY, LIMIT, UNION ALL, TABLE(:bind) sources;")
	fmt.Println("  CREATE COLLECTION name USING method WITH (key = value, ...) tunes the access")
	fmt.Println("  method (hint: bits, levels, shards; ritree: skeleton).")
	fmt.Println("  transactions: BEGIN; buffers INSERT/DELETE, reads answer from the BEGIN")
	fmt.Println("  snapshot; COMMIT; applies them unless another writer changed a touched table")
	fmt.Println("  first (first committer wins — the COMMIT errors and applies nothing);")
	fmt.Println("  ROLLBACK; discards. \\begin \\commit \\rollback are shorthands. DDL is")
	fmt.Println("  rejected inside the shell's transaction; DDL from another session on a")
	fmt.Println("  touched table makes the COMMIT conflict. The wal.* and txn.* families in")
	fmt.Println("  \\metrics trace commits, fsync batching and conflicts.")
}

// runRemote is the -connect mode: the whole session runs through the
// database/sql driver against a riserver, pinned to one connection so
// BEGIN/COMMIT state lives in one server session. The local-only meta
// commands (\tables, \stats, \slow, \reset) are unavailable; \metrics
// fetches the server's registry snapshot over the wire.
func runRemote(dsn string) error {
	db, err := sql.Open("ritree", dsn)
	if err != nil {
		return err
	}
	defer db.Close()
	ctx := context.Background()
	conn, err := db.Conn(ctx)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.PingContext(ctx); err != nil {
		return err
	}

	fmt.Printf("risql — connected to %s\n", dsn)
	fmt.Println(`type SQL ending with ';', or \begin \commit \rollback \metrics \help \q`)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("sql> ")
		} else {
			fmt.Print("  -> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			cmd, _ := trimmed, ""
			if i := strings.IndexAny(trimmed, " \t"); i >= 0 {
				cmd = trimmed[:i]
			}
			switch cmd {
			case `\q`, `\quit`:
				return nil
			case `\begin`, `\commit`, `\rollback`:
				runRemoteStatement(ctx, conn, strings.ToUpper(cmd[1:])+";")
			case `\metrics`:
				printRemoteMetrics(conn)
			case `\help`:
				printHelp()
			case `\tables`, `\collections`, `\stats`, `\slow`, `\reset`:
				fmt.Println(`  not available over a connection (server-local); use \metrics`)
			default:
				fmt.Println(`  unknown command; try \begin \commit \rollback \metrics \help \q`)
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		for {
			stmt, rest, ok := splitStatement(buf.String())
			if !ok {
				break
			}
			buf.Reset()
			buf.WriteString(rest)
			if !blankSQL(strings.TrimSuffix(stmt, ";")) {
				runRemoteStatement(ctx, conn, stmt)
			}
		}
		if blankSQL(buf.String()) {
			buf.Reset()
		}
		prompt()
	}
	return sc.Err()
}

// runRemoteStatement executes one statement over the pinned connection.
// SELECTs (and EXPLAIN, which the driver answers as a "plan" text
// column) stream through QueryContext; everything else goes through
// ExecContext.
func runRemoteStatement(ctx context.Context, conn *sql.Conn, stmt string) {
	isCursor := false
	if st, err := sqldb.Parse(stmt); err == nil {
		switch st.(type) {
		case *sqldb.SelectStmt, *sqldb.ExplainStmt:
			isCursor = true
		}
	}
	if !isCursor {
		res, err := conn.ExecContext(ctx, stmt)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		n, _ := res.RowsAffected()
		fmt.Printf("ok (%d rows affected)\n", n)
		return
	}
	rows, err := conn.QueryContext(ctx, stmt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for i, c := range cols {
		if i > 0 {
			fmt.Print("  ")
		}
		fmt.Printf("%-12s", c)
	}
	fmt.Println()
	vals := make([]interface{}, len(cols))
	ptrs := make([]interface{}, len(cols))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	n := 0
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			fmt.Println("error:", err)
			return
		}
		for i, v := range vals {
			if i > 0 {
				fmt.Print("  ")
			}
			switch x := v.(type) {
			case int64:
				fmt.Printf("%-12d", x)
			case string:
				fmt.Print(x)
			case []byte:
				fmt.Print(string(x))
			default:
				fmt.Printf("%-12v", x)
			}
		}
		fmt.Println()
		n++
	}
	if err := rows.Err(); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("(%d rows)\n", n)
}

// printRemoteMetrics fetches the server's metrics snapshot through the
// driver's raw-connection hook and pretty-prints the JSON.
func printRemoteMetrics(conn *sql.Conn) {
	var js string
	err := conn.Raw(func(dc interface{}) error {
		mf, ok := dc.(ritreedriver.MetricsFetcher)
		if !ok {
			return fmt.Errorf("connection does not expose server metrics")
		}
		var merr error
		js, merr = mf.ServerMetrics()
		return merr
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var pretty bytes.Buffer
	if json.Indent(&pretty, []byte(js), "  ", "  ") != nil {
		fmt.Println(js)
		return
	}
	fmt.Println("  " + pretty.String())
}
