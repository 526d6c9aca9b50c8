package driver

import (
	"context"
	sqldriver "database/sql/driver"
	"fmt"
	"io"
	"strings"

	"ritree/internal/sqldb"
)

// backend is what a connection runs statements through: the wire client
// (remote) or a shared in-process DB (embedded). Both surface the same
// error values — in particular, a conflicting COMMIT satisfies
// errors.Is(err, ritree.ErrTxnConflict) from either side.
type backend interface {
	query(ctx context.Context, sql string, binds map[string]interface{}) (sqldriver.Rows, error)
	exec(ctx context.Context, sql string, binds map[string]interface{}) (affected int64, plan string, err error)
	// prepare reserves backend-side statement state: the remote backend
	// parses server-side and executes by statement ID, the embedded one
	// re-submits the text (the engine's plan cache keys on it).
	prepare(sql string) (preparedStmt, error)
	ping(ctx context.Context) error
	metrics() (string, error)
	close() error
}

// preparedStmt executes one prepared statement.
type preparedStmt interface {
	queryStmt(ctx context.Context, binds map[string]interface{}) (sqldriver.Rows, error)
	execStmt(ctx context.Context, binds map[string]interface{}) (affected int64, plan string, err error)
	close() error
}

// conn is one database/sql connection.
type conn struct {
	be     backend
	closed bool
}

var (
	_ sqldriver.Conn               = (*conn)(nil)
	_ sqldriver.QueryerContext     = (*conn)(nil)
	_ sqldriver.ExecerContext      = (*conn)(nil)
	_ sqldriver.ConnPrepareContext = (*conn)(nil)
	_ sqldriver.ConnBeginTx        = (*conn)(nil)
	_ sqldriver.Pinger             = (*conn)(nil)
	_ MetricsFetcher               = (*conn)(nil)
)

func (c *conn) Prepare(query string) (sqldriver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

func (c *conn) PrepareContext(ctx context.Context, query string) (sqldriver.Stmt, error) {
	if c.closed {
		return nil, sqldriver.ErrBadConn
	}
	// Bind names come from the lexer so positional args have a stable
	// order; parsing up front surfaces syntax errors at Prepare time.
	st, err := sqldb.Parse(query)
	if err != nil {
		return nil, err
	}
	names, err := sqldb.BindNames(query)
	if err != nil {
		return nil, err
	}
	ps, err := c.be.prepare(query)
	if err != nil {
		return nil, err
	}
	_, isExplain := st.(*sqldb.ExplainStmt)
	return &stmt{c: c, ps: ps, bindNames: names, isExplain: isExplain}, nil
}

func (c *conn) QueryContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	if c.closed {
		return nil, sqldriver.ErrBadConn
	}
	names, err := sqldb.BindNames(query)
	if err != nil {
		return nil, err
	}
	binds, err := buildBinds(names, args)
	if err != nil {
		return nil, err
	}
	return c.query(ctx, query, binds)
}

// query routes one statement: EXPLAIN synthesizes a text result from the
// exec path, everything else opens a streaming cursor.
func (c *conn) query(ctx context.Context, query string, binds map[string]interface{}) (sqldriver.Rows, error) {
	if st, err := sqldb.Parse(query); err == nil {
		if _, isExplain := st.(*sqldb.ExplainStmt); isExplain {
			_, plan, err := c.be.exec(ctx, query, binds)
			if err != nil {
				return nil, err
			}
			return planRows(plan), nil
		}
	}
	return c.be.query(ctx, query, binds)
}

func (c *conn) ExecContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	if c.closed {
		return nil, sqldriver.ErrBadConn
	}
	names, err := sqldb.BindNames(query)
	if err != nil {
		return nil, err
	}
	binds, err := buildBinds(names, args)
	if err != nil {
		return nil, err
	}
	affected, _, err := c.be.exec(ctx, query, binds)
	if err != nil {
		return nil, err
	}
	return result(affected), nil
}

func (c *conn) Begin() (sqldriver.Tx, error) {
	return c.BeginTx(context.Background(), sqldriver.TxOptions{})
}

func (c *conn) BeginTx(ctx context.Context, opts sqldriver.TxOptions) (sqldriver.Tx, error) {
	if c.closed {
		return nil, sqldriver.ErrBadConn
	}
	if opts.Isolation != 0 {
		return nil, fmt.Errorf("ritree driver: only the default isolation level is supported")
	}
	if opts.ReadOnly {
		return nil, fmt.Errorf("ritree driver: read-only transactions are not supported")
	}
	if _, _, err := c.be.exec(ctx, "BEGIN", nil); err != nil {
		return nil, err
	}
	return &tx{c: c}, nil
}

func (c *conn) Ping(ctx context.Context) error {
	if c.closed {
		return sqldriver.ErrBadConn
	}
	return c.be.ping(ctx)
}

// ServerMetrics implements MetricsFetcher (see sql.Conn.Raw).
func (c *conn) ServerMetrics() (string, error) {
	if c.closed {
		return "", sqldriver.ErrBadConn
	}
	return c.be.metrics()
}

func (c *conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.be.close()
}

// stmt is a prepared statement. The plan work it saves lives in the
// engine's plan cache (keyed by statement text), so the handle itself
// only pins the parsed bind-name order — it stays valid across
// transactions and DDL, re-planning transparently when the cache was
// invalidated.
type stmt struct {
	c         *conn
	ps        preparedStmt
	bindNames []string
	isExplain bool
}

func (s *stmt) Close() error {
	if s.ps == nil {
		return nil
	}
	ps := s.ps
	s.ps = nil
	return ps.close()
}

func (s *stmt) NumInput() int { return len(s.bindNames) }

func (s *stmt) Exec(args []sqldriver.Value) (sqldriver.Result, error) {
	return s.ExecContext(context.Background(), namedValues(args))
}

func (s *stmt) Query(args []sqldriver.Value) (sqldriver.Rows, error) {
	return s.QueryContext(context.Background(), namedValues(args))
}

func (s *stmt) ExecContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	binds, err := buildBinds(s.bindNames, args)
	if err != nil {
		return nil, err
	}
	affected, _, err := s.ps.execStmt(ctx, binds)
	if err != nil {
		return nil, err
	}
	return result(affected), nil
}

func (s *stmt) QueryContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	binds, err := buildBinds(s.bindNames, args)
	if err != nil {
		return nil, err
	}
	if s.isExplain {
		_, plan, err := s.ps.execStmt(ctx, binds)
		if err != nil {
			return nil, err
		}
		return planRows(plan), nil
	}
	return s.ps.queryStmt(ctx, binds)
}

// tx maps sql.Tx onto the connection's explicit transaction.
type tx struct{ c *conn }

func (t *tx) Commit() error {
	_, _, err := t.c.be.exec(context.Background(), "COMMIT", nil)
	return err
}

func (t *tx) Rollback() error {
	_, _, err := t.c.be.exec(context.Background(), "ROLLBACK", nil)
	return err
}

// result carries the affected-row count; the engine has no insert IDs.
type result int64

func (r result) LastInsertId() (int64, error) {
	return 0, fmt.Errorf("ritree driver: LastInsertId is not supported")
}
func (r result) RowsAffected() (int64, error) { return int64(r), nil }

// buildBinds maps driver args onto the engine's named binds: positional
// args take the statement's distinct bind names in first-appearance
// order, named args (sql.Named) match directly.
func buildBinds(bindNames []string, args []sqldriver.NamedValue) (map[string]interface{}, error) {
	if len(args) == 0 {
		return nil, nil
	}
	binds := make(map[string]interface{}, len(args))
	for _, a := range args {
		name := strings.ToLower(a.Name)
		if name == "" {
			if a.Ordinal < 1 || a.Ordinal > len(bindNames) {
				return nil, fmt.Errorf("ritree driver: %d args for %d bind variables",
					len(args), len(bindNames))
			}
			name = bindNames[a.Ordinal-1]
		}
		v, ok := a.Value.(int64)
		if !ok {
			return nil, fmt.Errorf("ritree driver: bind :%s has unsupported type %T (values are int64)",
				name, a.Value)
		}
		binds[name] = v
	}
	return binds, nil
}

// namedValues adapts the pre-context Stmt call shape.
func namedValues(args []sqldriver.Value) []sqldriver.NamedValue {
	nvs := make([]sqldriver.NamedValue, len(args))
	for i, v := range args {
		nvs[i] = sqldriver.NamedValue{Ordinal: i + 1, Value: v}
	}
	return nvs
}

// staticRows serves a fully materialized result (EXPLAIN plans).
type staticRows struct {
	cols []string
	rows [][]sqldriver.Value
	pos  int
}

func planRows(plan string) *staticRows {
	lines := strings.Split(strings.TrimRight(plan, "\n"), "\n")
	sr := &staticRows{cols: []string{"plan"}}
	for _, ln := range lines {
		sr.rows = append(sr.rows, []sqldriver.Value{ln})
	}
	return sr
}

func (r *staticRows) Columns() []string { return r.cols }
func (r *staticRows) Close() error      { return nil }

func (r *staticRows) Next(dest []sqldriver.Value) error {
	if r.pos >= len(r.rows) {
		return io.EOF
	}
	copy(dest, r.rows[r.pos])
	r.pos++
	return nil
}
