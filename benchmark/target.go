package main

import (
	"context"
	"database/sql"
	"fmt"

	"ritree"
	"ritree/internal/sqldb"
)

// stmt is one SQL text with its bind names in first-appearance order, so
// the same positional arguments drive the embedded API (named binds) and
// database/sql (positional arguments, which the driver maps the same way).
type stmt struct {
	sql   string
	names []string
}

func newStmt(text string) stmt {
	names, err := sqldb.BindNames(text)
	if err != nil {
		panic(fmt.Sprintf("benchmark: statement %q: %v", text, err))
	}
	return stmt{sql: text, names: names}
}

// target runs statements at the outermost layer a workload uses: the
// embedded DB, or one database/sql connection (tcp:// or file://).
type target interface {
	// query opens the statement, drains every row and closes it. It
	// returns the row count and the sum of the last column; fn, when
	// non-nil, also sees every row.
	query(st stmt, args []int64, fn func(row []int64)) (rows, sum int64, err error)
	// exec runs a non-SELECT statement and returns the affected rows.
	exec(st stmt, args ...int64) (int64, error)
}

type embedded struct{ db *ritree.DB }

func binds(st stmt, args []int64) map[string]interface{} {
	if len(args) != len(st.names) {
		panic(fmt.Sprintf("benchmark: %q wants %d binds, got %d", st.sql, len(st.names), len(args)))
	}
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]interface{}, len(args))
	for i, n := range st.names {
		m[n] = args[i]
	}
	return m
}

func (e embedded) query(st stmt, args []int64, fn func(row []int64)) (rows, sum int64, err error) {
	r, err := e.db.Query(context.Background(), st.sql, binds(st, args))
	if err != nil {
		return 0, 0, err
	}
	for r.Next() {
		row := r.Row()
		rows++
		sum += row[len(row)-1]
		if fn != nil {
			fn(row)
		}
	}
	err = r.Err()
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	return rows, sum, err
}

func (e embedded) exec(st stmt, args ...int64) (int64, error) {
	res, err := e.db.Exec(st.sql, binds(st, args))
	if err != nil {
		return 0, err
	}
	return res.Affected, nil
}

// sqlConn is one pinned database/sql connection with its prepared
// statements, prepared on first use.
type sqlConn struct {
	conn  *sql.Conn
	stmts map[string]*sql.Stmt
	vals  []int64
	dest  []interface{}
	argv  []interface{}
}

func newSQLConn(sdb *sql.DB) (*sqlConn, error) {
	conn, err := sdb.Conn(context.Background())
	if err != nil {
		return nil, err
	}
	return &sqlConn{conn: conn, stmts: make(map[string]*sql.Stmt)}, nil
}

func (c *sqlConn) prepared(st stmt) (*sql.Stmt, error) {
	if ps, ok := c.stmts[st.sql]; ok {
		return ps, nil
	}
	ps, err := c.conn.PrepareContext(context.Background(), st.sql)
	if err != nil {
		return nil, err
	}
	c.stmts[st.sql] = ps
	return ps, nil
}

func (c *sqlConn) args(args []int64) []interface{} {
	c.argv = c.argv[:0]
	for _, a := range args {
		c.argv = append(c.argv, a)
	}
	return c.argv
}

func (c *sqlConn) query(st stmt, args []int64, fn func(row []int64)) (rows, sum int64, err error) {
	ps, err := c.prepared(st)
	if err != nil {
		return 0, 0, err
	}
	r, err := ps.QueryContext(context.Background(), c.args(args)...)
	if err != nil {
		return 0, 0, err
	}
	cols, err := r.Columns()
	if err != nil {
		r.Close()
		return 0, 0, err
	}
	if len(c.vals) != len(cols) {
		c.vals = make([]int64, len(cols))
		c.dest = make([]interface{}, len(cols))
		for i := range c.vals {
			c.dest[i] = &c.vals[i]
		}
	}
	for r.Next() {
		if err := r.Scan(c.dest...); err != nil {
			r.Close()
			return rows, sum, err
		}
		rows++
		sum += c.vals[len(c.vals)-1]
		if fn != nil {
			fn(c.vals)
		}
	}
	err = r.Err()
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	return rows, sum, err
}

func (c *sqlConn) exec(st stmt, args ...int64) (int64, error) {
	// BEGIN and COMMIT go unprepared: the server tracks which session owns
	// the transaction on its plain exec path.
	if len(st.names) == 0 {
		res, err := c.conn.ExecContext(context.Background(), st.sql)
		if err != nil {
			return 0, err
		}
		return res.RowsAffected()
	}
	ps, err := c.prepared(st)
	if err != nil {
		return 0, err
	}
	res, err := ps.ExecContext(context.Background(), c.args(args)...)
	if err != nil {
		return 0, err
	}
	return res.RowsAffected()
}

func (c *sqlConn) close() error {
	for _, ps := range c.stmts {
		ps.Close()
	}
	return c.conn.Close()
}
