package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"time"

	"ritree"
	"ritree/internal/sqldb"
	"ritree/internal/wire"
)

// maxFetch caps one RowBatch regardless of what the client asks for, so
// a hostile Fetch(max=1<<60) cannot make the server materialize an
// unbounded batch. Streaming still covers arbitrary results — the client
// just fetches again.
const maxFetch = 8192

// prepared is a server-side prepared statement: the SQL text plus its
// bind names in first-appearance order (the driver binds positionally).
// No plan is pinned here — the engine's plan cache keys on the text, so
// repeated execution hits the cached plan without the session holding
// storage handles across DDL.
type prepared struct {
	sql       string
	bindNames []string
}

// cursor is one open server-side result stream.
type cursor struct {
	rows  *ritree.Rows
	ncols int
}

// session is the per-connection state machine. All fields are owned by
// the session goroutine except draining, which drain() flips from the
// shutdown path.
type session struct {
	srv  *Server
	conn *countingConn
	br   *bufio.Reader
	bw   *bufio.Writer

	draining atomic.Bool

	stmts      map[uint64]*prepared
	nextStmt   uint64
	cursors    map[uint64]*cursor
	nextCursor uint64
	txnOpen    bool
}

func newSession(srv *Server, conn net.Conn) *session {
	cc := &countingConn{Conn: conn, in: srv.met.bytesIn, out: srv.met.bytesOut}
	return &session{
		srv:     srv,
		conn:    cc,
		br:      bufio.NewReader(cc),
		bw:      bufio.NewWriter(cc),
		stmts:   make(map[uint64]*prepared),
		cursors: make(map[uint64]*cursor),
	}
}

// drain asks the session to stop: a busy session exits after flushing
// its in-flight response; an idle one unblocks from its read
// immediately. Safe to call from any goroutine.
func (s *session) drain() {
	s.draining.Store(true)
	s.conn.SetReadDeadline(time.Now())
}

// kill severs the connection outright.
func (s *session) kill() { s.conn.Close() }

// run is the session loop: strict lockstep — read one request, write one
// response, flush. It returns when the client terminates, the connection
// dies, or drain was requested; teardown always runs.
func (s *session) run() {
	defer s.teardown()
	if err := s.handshake(); err != nil {
		if !errors.Is(err, io.EOF) {
			s.srv.logf("server: %s handshake: %v", s.conn.RemoteAddr(), err)
		}
		return
	}
	for !s.draining.Load() {
		typ, payload, err := wire.ReadFrame(s.br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !s.draining.Load() {
				s.srv.logf("server: %s read: %v", s.conn.RemoteAddr(), err)
			}
			return
		}
		if typ == wire.MsgTerminate {
			return
		}
		start := time.Now()
		err = s.dispatch(typ, payload)
		if err == nil {
			err = s.bw.Flush()
		}
		s.srv.met.observe(typ, time.Since(start))
		if err != nil {
			s.srv.logf("server: %s: %v", s.conn.RemoteAddr(), err)
			return
		}
	}
}

// handshake requires the first frame to be a version-compatible Hello.
func (s *session) handshake() error {
	typ, payload, err := wire.ReadFrame(s.br)
	if err != nil {
		return err
	}
	if typ != wire.MsgHello {
		s.reply(wire.MsgErr, wire.EncodeErr(wire.CodeProtocol, "expected Hello"))
		s.bw.Flush()
		return errProtocol("first frame %#x, want Hello", typ)
	}
	r := wire.NewReader(payload)
	ver := r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	if ver != wire.ProtoVersion {
		s.reply(wire.MsgErr, wire.EncodeErr(wire.CodeProtocol,
			"unsupported protocol version"))
		s.bw.Flush()
		return errProtocol("client version %d, want %d", ver, wire.ProtoVersion)
	}
	b := wire.AppendUvarint(nil, wire.ProtoVersion)
	b = wire.AppendString(b, "riserver")
	if err := s.reply(wire.MsgHelloOK, b); err != nil {
		return err
	}
	return s.bw.Flush()
}

// dispatch handles one request frame. Statement-level failures are
// answered with MsgErr and keep the connection; only transport or
// protocol failures return an error.
func (s *session) dispatch(typ byte, payload []byte) error {
	r := wire.NewReader(payload)
	switch typ {
	case wire.MsgPing:
		return s.reply(wire.MsgPong, nil)

	case wire.MsgQuery:
		sql := r.String()
		binds := r.Binds()
		if r.Err() != nil {
			return r.Err()
		}
		return s.openCursor(sql, binds)

	case wire.MsgExec:
		sql := r.String()
		binds := r.Binds()
		if r.Err() != nil {
			return r.Err()
		}
		return s.exec(sql, binds)

	case wire.MsgParse:
		sql := r.String()
		if r.Err() != nil {
			return r.Err()
		}
		if _, err := sqldb.Parse(sql); err != nil {
			return s.replyErr(err)
		}
		names, err := sqldb.BindNames(sql)
		if err != nil {
			return s.replyErr(err)
		}
		s.nextStmt++
		id := s.nextStmt
		s.stmts[id] = &prepared{sql: sql, bindNames: names}
		b := wire.AppendUvarint(nil, id)
		b = wire.AppendStrings(b, names)
		return s.reply(wire.MsgParseOK, b)

	case wire.MsgStmtQuery:
		id := r.Uvarint()
		binds := r.Binds()
		if r.Err() != nil {
			return r.Err()
		}
		st, ok := s.stmts[id]
		if !ok {
			return s.replyErr(errProtocol("unknown statement %d", id))
		}
		return s.openCursor(st.sql, binds)

	case wire.MsgStmtExec:
		id := r.Uvarint()
		binds := r.Binds()
		if r.Err() != nil {
			return r.Err()
		}
		st, ok := s.stmts[id]
		if !ok {
			return s.replyErr(errProtocol("unknown statement %d", id))
		}
		return s.exec(st.sql, binds)

	case wire.MsgFetch:
		id := r.Uvarint()
		max := r.Uvarint()
		if r.Err() != nil {
			return r.Err()
		}
		return s.fetch(id, max)

	case wire.MsgCloseCursor:
		id := r.Uvarint()
		if r.Err() != nil {
			return r.Err()
		}
		if cur, ok := s.cursors[id]; ok {
			cur.rows.Close()
			delete(s.cursors, id)
		}
		return s.reply(wire.MsgOK, nil)

	case wire.MsgCloseStmt:
		id := r.Uvarint()
		if r.Err() != nil {
			return r.Err()
		}
		delete(s.stmts, id)
		return s.reply(wire.MsgOK, nil)

	case wire.MsgMetrics:
		js, err := json.Marshal(s.srv.db.Metrics())
		if err != nil {
			return s.replyErr(err)
		}
		return s.reply(wire.MsgMetricsData, wire.AppendString(nil, string(js)))

	default:
		return errProtocol("unknown message type %#x", typ)
	}
}

// openCursor runs a streaming SELECT and answers with its RowHeader.
func (s *session) openCursor(sql string, wireBinds map[string]int64) error {
	rows, err := s.srv.db.Query(context.Background(), sql, toBinds(wireBinds))
	if err != nil {
		return s.replyErr(err)
	}
	cols := rows.Columns()
	s.nextCursor++
	id := s.nextCursor
	s.cursors[id] = &cursor{rows: rows, ncols: len(cols)}
	b := wire.AppendUvarint(nil, id)
	b = wire.AppendStrings(b, cols)
	return s.reply(wire.MsgRowHeader, b)
}

// fetch pulls up to max rows from a cursor. The final batch (done=true)
// closes the cursor server-side; a client abandoning the stream early
// sends CloseCursor instead.
func (s *session) fetch(id, max uint64) error {
	cur, ok := s.cursors[id]
	if !ok {
		return s.replyErr(errProtocol("unknown cursor %d", id))
	}
	if max == 0 || max > maxFetch {
		max = maxFetch
	}
	batch := make([][]int64, 0, 64)
	done := false
	for uint64(len(batch)) < max {
		if !cur.rows.Next() {
			done = true
			break
		}
		row := cur.rows.Row() // buffer is reused by the next step: copy
		cp := make([]int64, len(row))
		copy(cp, row)
		batch = append(batch, cp)
	}
	if done {
		err := cur.rows.Err()
		cur.rows.Close()
		delete(s.cursors, id)
		if err != nil {
			return s.replyErr(err)
		}
	}
	return s.reply(wire.MsgRowBatch, wire.EncodeRowBatch(batch, done))
}

// exec runs a non-cursor statement and tracks transaction ownership from
// what the statement did: a BEGIN claims the engine's transaction for
// this session so teardown knows to roll it back, and any COMMIT or
// ROLLBACK — a failed COMMIT too, which has already released it — gives
// it up.
func (s *session) exec(sql string, wireBinds map[string]int64) error {
	res, err := s.srv.db.Exec(sql, toBinds(wireBinds))
	if res != nil {
		switch res.Txn {
		case sqldb.TxnBegun:
			s.txnOpen = true
		case sqldb.TxnEnded:
			s.txnOpen = false
		}
	}
	if err != nil {
		return s.replyErr(err)
	}
	b := wire.AppendVarint(nil, res.Affected)
	b = wire.AppendString(b, res.Plan)
	return s.reply(wire.MsgExecOK, b)
}

// reply buffers one response frame (the run loop flushes).
func (s *session) reply(typ byte, payload []byte) error {
	return wire.WriteFrame(s.bw, typ, payload)
}

// replyErr answers a statement-level failure, mapping ErrTxnConflict to
// its protocol code so the driver can reconstruct the sentinel.
func (s *session) replyErr(err error) error {
	code := wire.CodeError
	if errors.Is(err, ritree.ErrTxnConflict) {
		code = wire.CodeTxnConflict
	}
	return s.reply(wire.MsgErr, wire.EncodeErr(code, err.Error()))
}

// teardown releases everything the session holds: every open cursor
// (each pins a snapshot view until closed) and the engine's transaction
// slot if this session held it. It must run on every exit path — a
// connection killed mid-stream leaks pinned snapshots otherwise.
func (s *session) teardown() {
	for id, cur := range s.cursors {
		cur.rows.Close()
		delete(s.cursors, id)
	}
	if s.txnOpen {
		s.txnOpen = false
		if _, err := s.srv.db.Exec("ROLLBACK", nil); err != nil {
			s.srv.logf("server: teardown rollback: %v", err)
		}
	}
	s.conn.Close()
}

// toBinds widens wire binds to the engine's bind map.
func toBinds(in map[string]int64) map[string]interface{} {
	if len(in) == 0 {
		return nil
	}
	out := make(map[string]interface{}, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}
