package driver

import (
	"context"
	sqldriver "database/sql/driver"
	"fmt"
	"io"
	"slices"
	"strings"

	"ritree/internal/sqldb"
)

// backend is what a connection runs statements through: the wire client
// (remote) or a shared in-process DB (embedded). Both take a statement's
// arguments by position and surface the same error values — in
// particular, a conflicting COMMIT satisfies
// errors.Is(err, ritree.ErrTxnConflict) from either side. A query of an
// EXPLAIN answers with its plan as a "plan" text column.
type backend interface {
	query(ctx context.Context, sql string, args []int64) (sqldriver.Rows, error)
	exec(ctx context.Context, sql string, args []int64) (affected int64, err error)
	// prepare parses the statement on the backend, which keeps the parse
	// and reports its bind names.
	prepare(sql string) (preparedStmt, error)
	ping(ctx context.Context) error
	metrics() (string, error)
	close() error
}

// preparedStmt executes one prepared statement.
type preparedStmt interface {
	bindNames() []string
	queryStmt(ctx context.Context, args []int64) (sqldriver.Rows, error)
	execStmt(ctx context.Context, args []int64) (affected int64, err error)
	close() error
}

// conn is one database/sql connection. database/sql never uses it from
// two goroutines at once, so args is a buffer every statement reuses.
type conn struct {
	be     backend
	closed bool
	args   []int64
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
	ps, err := c.be.prepare(query)
	if err != nil {
		return nil, err
	}
	return &stmt{c: c, ps: ps}, nil
}

func (c *conn) QueryContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	if c.closed {
		return nil, sqldriver.ErrBadConn
	}
	vals, err := c.positional(args, nil, query)
	if err != nil {
		return nil, err
	}
	return c.be.query(ctx, query, vals)
}

func (c *conn) ExecContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	if c.closed {
		return nil, sqldriver.ErrBadConn
	}
	vals, err := c.positional(args, nil, query)
	if err != nil {
		return nil, err
	}
	affected, err := c.be.exec(ctx, query, vals)
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
	if _, err := c.be.exec(ctx, "BEGIN", nil); err != nil {
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

// stmt is a prepared statement: the backend keeps its parse and the
// engine's plan cache its plan, so it stays valid across transactions
// and DDL, re-planning transparently when the cache was invalidated.
type stmt struct {
	c  *conn
	ps preparedStmt
}

func (s *stmt) Close() error {
	if s.ps == nil {
		return nil
	}
	ps := s.ps
	s.ps = nil
	return ps.close()
}

func (s *stmt) NumInput() int { return len(s.ps.bindNames()) }

func (s *stmt) Exec(args []sqldriver.Value) (sqldriver.Result, error) {
	return s.ExecContext(context.Background(), namedValues(args))
}

func (s *stmt) Query(args []sqldriver.Value) (sqldriver.Rows, error) {
	return s.QueryContext(context.Background(), namedValues(args))
}

func (s *stmt) ExecContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	vals, err := s.c.positional(args, s.ps.bindNames(), "")
	if err != nil {
		return nil, err
	}
	affected, err := s.ps.execStmt(ctx, vals)
	if err != nil {
		return nil, err
	}
	return result(affected), nil
}

func (s *stmt) QueryContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	vals, err := s.c.positional(args, s.ps.bindNames(), "")
	if err != nil {
		return nil, err
	}
	return s.ps.queryStmt(ctx, vals)
}

// tx maps sql.Tx onto the connection's explicit transaction.
type tx struct{ c *conn }

func (t *tx) Commit() error {
	_, err := t.c.be.exec(context.Background(), "COMMIT", nil)
	return err
}

func (t *tx) Rollback() error {
	_, err := t.c.be.exec(context.Background(), "ROLLBACK", nil)
	return err
}

// result carries the affected-row count; the engine has no insert IDs.
type result int64

func (r result) LastInsertId() (int64, error) {
	return 0, fmt.Errorf("ritree driver: LastInsertId is not supported")
}
func (r result) RowsAffected() (int64, error) { return int64(r), nil }

// positional orders driver args as the statement's bind values, in the
// connection's buffer: a positional arg takes its ordinal's place, a
// named one (sql.Named) the place of its bind name. names are the
// statement's bind names, or nil for an unprepared statement, whose text
// query is then lexed for them if a named arg needs them.
func (c *conn) positional(args []sqldriver.NamedValue, names []string, query string) ([]int64, error) {
	if len(args) == 0 {
		return nil, nil
	}
	named := slices.ContainsFunc(args, func(a sqldriver.NamedValue) bool { return a.Name != "" })
	if named && names == nil {
		var err error
		if names, err = sqldb.BindNames(query); err != nil {
			return nil, err
		}
	}
	n := len(args)
	if named || names != nil {
		n = len(names)
	}
	if len(args) != n {
		return nil, fmt.Errorf("ritree driver: %d args for %d bind variables", len(args), n)
	}
	vals := slices.Grow(c.args[:0], n)[:n]
	var set []bool
	if named {
		set = make([]bool, n)
	}
	for _, a := range args {
		i := a.Ordinal - 1
		if a.Name != "" {
			if i = slices.Index(names, strings.ToLower(a.Name)); i < 0 {
				return nil, fmt.Errorf("ritree driver: the statement has no bind :%s", strings.ToLower(a.Name))
			}
		}
		if set != nil {
			if set[i] {
				return nil, fmt.Errorf("ritree driver: bind :%s is given twice", names[i])
			}
			set[i] = true
		}
		v, ok := a.Value.(int64)
		if !ok {
			return nil, fmt.Errorf("ritree driver: argument %d has unsupported type %T (values are int64)", a.Ordinal, a.Value)
		}
		vals[i] = v
	}
	c.args = vals
	return vals, nil
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
