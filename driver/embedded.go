package driver

import (
	"context"
	sqldriver "database/sql/driver"
	"encoding/json"
	"io"

	"ritree"
	"ritree/internal/sqldb"
)

// embedded runs a connection's statements on its own session of a shared
// in-process DB (the mem:// and file:// DSNs). Engine errors pass through
// unchanged, so ErrTxnConflict is errors.Is-able without any mapping.
type embedded struct {
	db *ritree.DB
	s  *ritree.Session
}

func (e *embedded) query(ctx context.Context, sql string, args []int64) (sqldriver.Rows, error) {
	st, err := e.s.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return embeddedStmt{st}.queryStmt(ctx, args)
}

func (e *embedded) exec(ctx context.Context, sql string, args []int64) (int64, error) {
	st, err := e.s.Prepare(sql)
	if err != nil {
		return 0, err
	}
	return embeddedStmt{st}.execStmt(ctx, args)
}

func (e *embedded) prepare(sql string) (preparedStmt, error) {
	st, err := e.s.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return embeddedStmt{st}, nil
}

func (e *embedded) ping(context.Context) error { return nil }

func (e *embedded) metrics() (string, error) {
	js, err := json.Marshal(e.db.Metrics())
	return string(js), err
}

// close rolls back the connection's transaction (the Connector owns the DB).
func (e *embedded) close() error { return e.s.Close() }

// embeddedStmt is a statement prepared on the connection's session.
type embeddedStmt struct{ st *sqldb.Stmt }

func (s embeddedStmt) bindNames() []string { return s.st.BindNames() }

func (s embeddedStmt) queryStmt(ctx context.Context, args []int64) (sqldriver.Rows, error) {
	if s.st.Explain() {
		res, err := s.st.Exec(args)
		if err != nil {
			return nil, err
		}
		return planRows(res.Plan), nil
	}
	rows, err := s.st.Query(ctx, args)
	if err != nil {
		return nil, err
	}
	return &embeddedRows{rows: rows}, nil
}

func (s embeddedStmt) execStmt(_ context.Context, args []int64) (int64, error) {
	res, err := s.st.Exec(args)
	if err != nil {
		return 0, err
	}
	return res.Affected, nil
}

func (s embeddedStmt) close() error { return nil }

// embeddedRows adapts the engine's streaming cursor.
type embeddedRows struct {
	rows *ritree.Rows
}

func (r *embeddedRows) Columns() []string { return r.rows.Columns() }

func (r *embeddedRows) Next(dest []sqldriver.Value) error {
	if !r.rows.Next() {
		if err := r.rows.Err(); err != nil {
			return err
		}
		return io.EOF
	}
	for i, v := range r.rows.Row() {
		dest[i] = v
	}
	return nil
}

func (r *embeddedRows) Close() error { return r.rows.Close() }
