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
// a hostile first-batch count or Fetch(max=1<<60) cannot make the server
// materialize an unbounded batch; a count of 0 asks for the cap.
// Streaming still covers arbitrary results — the client just fetches
// again.
const maxFetch = 8192

// session is the per-connection state machine. All fields are owned by
// the session goroutine except draining, which drain() flips from the
// shutdown path.
type session struct {
	srv  *Server
	conn *countingConn
	fr   *wire.FrameReader
	bw   *bufio.Writer
	// db runs the connection's statements and owns its transaction.
	db *ritree.Session

	draining atomic.Bool

	// stmts holds the connection's prepared statements: each keeps its
	// parse and takes its plan from the engine's plan cache, so it holds
	// no storage handle across DDL.
	stmts      map[uint64]*sqldb.Stmt
	nextStmt   uint64
	cursors    map[uint64]*ritree.Rows
	nextCursor uint64

	// Buffers reused by every request: the decoded arguments, the reply
	// payload, and the encoded rows of a batch (reply copies the payload
	// into bw, so a buffer is free again once reply returns).
	args      []int64
	out, rows []byte
}

func newSession(srv *Server, conn net.Conn) *session {
	cc := &countingConn{Conn: conn, in: srv.met.bytesIn, out: srv.met.bytesOut}
	return &session{
		srv:     srv,
		conn:    cc,
		fr:      wire.NewFrameReader(cc),
		bw:      bufio.NewWriter(cc),
		db:      srv.db.Session(),
		stmts:   make(map[uint64]*sqldb.Stmt),
		cursors: make(map[uint64]*ritree.Rows),
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

// run is the session loop: strict lockstep — read one request, write its
// reply (one frame, or a query's header and first batch), flush. It returns when the client terminates, the connection
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
		typ, payload, err := s.fr.ReadFrame()
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
	typ, payload, err := s.fr.ReadFrame()
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
		sql, first := r.String(), r.Uvarint()
		if s.args = r.Args(s.args); r.Err() != nil {
			return r.Err()
		}
		st, err := s.db.Prepare(sql)
		if err != nil {
			return s.replyErr(err)
		}
		return s.query(st, first)

	case wire.MsgExec:
		sql := r.String()
		if s.args = r.Args(s.args); r.Err() != nil {
			return r.Err()
		}
		st, err := s.db.Prepare(sql)
		if err != nil {
			return s.replyErr(err)
		}
		return s.exec(st)

	case wire.MsgParse:
		sql := r.String()
		if r.Err() != nil {
			return r.Err()
		}
		st, err := s.db.Prepare(sql)
		if err != nil {
			return s.replyErr(err)
		}
		s.nextStmt++
		s.stmts[s.nextStmt] = st
		s.out = wire.AppendStrings(wire.AppendUvarint(s.out[:0], s.nextStmt), st.BindNames())
		return s.reply(wire.MsgParseOK, s.out)

	case wire.MsgStmtQuery:
		id, first := r.Uvarint(), r.Uvarint()
		if s.args = r.Args(s.args); r.Err() != nil {
			return r.Err()
		}
		st, ok := s.stmts[id]
		if !ok {
			return s.replyErr(errProtocol("unknown statement %d", id))
		}
		return s.query(st, first)

	case wire.MsgStmtExec:
		id := r.Uvarint()
		if s.args = r.Args(s.args); r.Err() != nil {
			return r.Err()
		}
		st, ok := s.stmts[id]
		if !ok {
			return s.replyErr(errProtocol("unknown statement %d", id))
		}
		return s.exec(st)

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
		if rows, ok := s.cursors[id]; ok {
			rows.Close()
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

// query runs a SELECT with the request's arguments and answers with its
// RowHeader and its first batch of up to first rows. An EXPLAIN is
// answered as by Exec, with its plan text.
func (s *session) query(st *sqldb.Stmt, first uint64) error {
	if st.Explain() {
		return s.exec(st)
	}
	rows, err := st.Query(context.Background(), s.args)
	if err != nil {
		return s.replyErr(err)
	}
	s.nextCursor++
	s.out = wire.AppendStrings(wire.AppendUvarint(s.out[:0], s.nextCursor), rows.Columns())
	if err := s.reply(wire.MsgRowHeader, s.out); err != nil {
		rows.Close()
		return err
	}
	done, err := s.batch(rows, first)
	if !done {
		s.cursors[s.nextCursor] = rows
	}
	return err
}

// fetch answers a Fetch with the cursor's next batch of up to max rows.
// The final batch (done=true) closes the cursor server-side; a client
// abandoning the stream early sends CloseCursor instead.
func (s *session) fetch(id, max uint64) error {
	rows, ok := s.cursors[id]
	if !ok {
		return s.replyErr(errProtocol("unknown cursor %d", id))
	}
	done, err := s.batch(rows, max)
	if done {
		delete(s.cursors, id)
	}
	return err
}

// batch writes the cursor's next RowBatch of up to max rows, each row
// encoded straight from the cursor's row buffer, and reports whether the
// cursor is finished and closed. A cursor that fails is closed and
// answered with MsgErr.
func (s *session) batch(rows *ritree.Rows, max uint64) (done bool, err error) {
	if max == 0 || max > maxFetch {
		max = maxFetch
	}
	body := s.rows[:0]
	n := 0
	for uint64(n) < max {
		if !rows.Next() {
			done = true
			break
		}
		body = wire.AppendRow(body, rows.Row())
		n++
	}
	s.rows = body
	if done {
		err := rows.Err()
		rows.Close()
		if err != nil {
			return true, s.replyErr(err)
		}
	}
	s.out = wire.AppendRowBatch(s.out[:0], done, n, body)
	return done, s.reply(wire.MsgRowBatch, s.out)
}

// exec runs a statement with the request's arguments.
func (s *session) exec(st *sqldb.Stmt) error {
	res, err := st.Exec(s.args)
	if err != nil {
		return s.replyErr(err)
	}
	s.out = wire.AppendString(wire.AppendVarint(s.out[:0], res.Affected), res.Plan)
	return s.reply(wire.MsgExecOK, s.out)
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
// (each pins a snapshot view until closed) and its transaction. It must
// run on every exit path — a connection killed mid-stream leaks pinned
// snapshots otherwise.
func (s *session) teardown() {
	for id, rows := range s.cursors {
		rows.Close()
		delete(s.cursors, id)
	}
	s.db.Close()
	s.conn.Close()
}
