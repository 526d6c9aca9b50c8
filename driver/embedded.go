package driver

import (
	"context"
	sqldriver "database/sql/driver"
	"encoding/json"
	"io"

	"ritree"
)

// embedded runs a connection's statements on its own session of a shared
// in-process DB (the mem:// and file:// DSNs). Engine errors pass through
// unchanged, so ErrTxnConflict is errors.Is-able without any mapping.
type embedded struct {
	db *ritree.DB
	s  *ritree.Session
}

func (e *embedded) query(ctx context.Context, sql string, binds map[string]interface{}) (sqldriver.Rows, error) {
	rows, err := e.s.Query(ctx, sql, binds)
	if err != nil {
		return nil, err
	}
	return &embeddedRows{rows: rows}, nil
}

func (e *embedded) exec(_ context.Context, sql string, binds map[string]interface{}) (int64, string, error) {
	res, err := e.s.Exec(sql, binds)
	if err != nil {
		return 0, "", err
	}
	return res.Affected, res.Plan, nil
}

// prepare keeps no embedded-side state beyond the text: the engine's
// plan cache keys on it, so re-submitting is the prepared fast path.
func (e *embedded) prepare(sql string) (preparedStmt, error) {
	return &embeddedStmt{be: e, sql: sql}, nil
}

func (e *embedded) ping(context.Context) error { return nil }

func (e *embedded) metrics() (string, error) {
	js, err := json.Marshal(e.db.Metrics())
	return string(js), err
}

// close rolls back the connection's transaction (the Connector owns the DB).
func (e *embedded) close() error { return e.s.Close() }

// embeddedStmt re-submits the statement text per execution.
type embeddedStmt struct {
	be  *embedded
	sql string
}

func (s *embeddedStmt) queryStmt(ctx context.Context, binds map[string]interface{}) (sqldriver.Rows, error) {
	return s.be.query(ctx, s.sql, binds)
}

func (s *embeddedStmt) execStmt(ctx context.Context, binds map[string]interface{}) (int64, string, error) {
	return s.be.exec(ctx, s.sql, binds)
}

func (s *embeddedStmt) close() error { return nil }

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
