package sqldb

import (
	"context"
	"fmt"
)

// Stmt is a prepared statement: its text parsed once, with its bind names
// in first-appearance order, which are the positions of its arguments.
// Executing it parses nothing. Its plan still comes from the engine's
// plan cache, keyed by the text, so a catalog change re-plans it through
// the cache's epoch invalidation: after DROP INDEX it runs as a table
// scan, after DROP TABLE it fails. A Stmt belongs to the session that
// prepared it, runs in that session's transaction, and is safe for
// concurrent use.
type Stmt struct {
	s     *Session
	sql   string
	st    Statement
	names []string
}

// Prepare parses sql into a statement of this session.
func (s *Session) Prepare(sql string) (*Stmt, error) {
	st, err := s.parse(sql)
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// parse is Prepare without the handle, for the text path, which uses the
// statement once.
func (s *Session) parse(sql string) (Stmt, error) {
	st, names, err := parse(sql)
	if err != nil {
		return Stmt{}, err
	}
	if m := s.e.sqlMet.Load(); m != nil {
		m.parses.Inc()
	}
	return Stmt{s: s, sql: sql, st: st, names: names}, nil
}

// BindNames returns the statement's bind names; the i-th argument of
// Query and Exec is the value of the i-th name. The slice is shared:
// do not modify it.
func (st *Stmt) BindNames() []string { return st.names }

// Explain reports whether the statement is an EXPLAIN, whose result is
// the plan text of Exec rather than a cursor.
func (st *Stmt) Explain() bool {
	_, ok := st.st.(*ExplainStmt)
	return ok
}

// Query opens a cursor over the statement, which must be a SELECT, with
// args as its bind values by position.
func (st *Stmt) Query(ctx context.Context, args []int64) (*Rows, error) {
	b, err := st.args(args)
	if err != nil {
		return nil, err
	}
	return st.query(ctx, b)
}

// Exec runs the statement with args as its bind values by position. A
// SELECT is Query drained into the Result.
func (st *Stmt) Exec(args []int64) (*Result, error) {
	b, err := st.args(args)
	if err != nil {
		return nil, err
	}
	return st.exec(b)
}

func (st *Stmt) args(args []int64) (bindVals, error) {
	if len(args) != len(st.names) {
		return bindVals{}, fmt.Errorf("sql: statement has %d bind variables, got %d arguments", len(st.names), len(args))
	}
	return bindVals{names: st.names, ints: args}, nil
}

// mapBinds places the public API's named bind values at the statement's
// positions.
func (st *Stmt) mapBinds(m map[string]interface{}) bindVals {
	b := bindVals{names: st.names}
	if len(st.names) > 0 {
		b.vals = make([]interface{}, len(st.names))
		for i, name := range st.names {
			b.vals[i] = m[name]
		}
	}
	return b
}

// bindVals is one execution's bind values by position: value i belongs to
// names[i], the statement's i-th bind name. The positional path (Stmt)
// fills ints. The public map boundary fills vals with the map's values
// as given, so a missing or mistyped value fails where the statement
// uses it, and vals also carries TABLE(:name) relations.
type bindVals struct {
	names []string
	ints  []int64
	vals  []interface{}
}

func (b bindVals) pos(name string) int {
	for i, n := range b.names {
		if n == name {
			return i
		}
	}
	return -1
}

// scalar resolves a scalar bind value.
func (b bindVals) scalar(name string) (int64, error) {
	i := b.pos(name)
	if i >= 0 && b.vals == nil {
		return b.ints[i], nil
	}
	var v interface{}
	if i >= 0 {
		v = b.vals[i]
	}
	switch x := v.(type) {
	case nil:
		return 0, fmt.Errorf("sql: missing bind :%s", name)
	case int64:
		return x, nil
	case int:
		return int64(x), nil
	case int32:
		return int64(x), nil
	}
	return 0, fmt.Errorf("sql: bind :%s has unsupported type %T (want integer)", name, v)
}

// relation resolves a TABLE(:name) bind value.
func (b bindVals) relation(name string) (*Transient, error) {
	var v interface{}
	if i := b.pos(name); i >= 0 && b.vals == nil {
		v = b.ints[i]
	} else if i >= 0 {
		v = b.vals[i]
	}
	switch x := v.(type) {
	case nil:
		return nil, fmt.Errorf("sql: missing collection bind :%s", name)
	case *Transient:
		return x, nil
	case Transient:
		return &x, nil
	}
	return nil, fmt.Errorf("sql: bind :%s has type %T, want Transient", name, v)
}
