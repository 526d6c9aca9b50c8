package driver

import (
	"bufio"
	"context"
	sqldriver "database/sql/driver"
	"fmt"
	"io"
	"net"
	"sync"

	"ritree"
	"ritree/internal/wire"
)

// fetchBatch is how many rows a query's first reply, and every Fetch
// after it, carries: large enough that most SELECTs end in the first
// reply, one round trip in all, and small enough that a LIMIT-k client
// stops the server-side scan after O(k) leaf rows.
const fetchBatch = 512

// remote is the wire-protocol client backend behind a tcp:// DSN. The
// protocol is strict lockstep, so one mutex serializes round trips; an
// open cursor interleaves its Fetch round trips with other statements on
// the same connection because every request names its cursor.
type remote struct {
	mu     sync.Mutex
	conn   net.Conn
	fr     *wire.FrameReader
	bw     *bufio.Writer
	broken bool
	// req is the request payload buffer, reused under mu: WriteFrame
	// copies it into bw.
	req []byte
}

// dialRemote connects and performs the Hello handshake.
func dialRemote(ctx context.Context, addr string) (*remote, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	r := &remote{conn: conn, fr: wire.NewFrameReader(conn), bw: bufio.NewWriter(conn)}
	typ, _, err := r.roundTrip(wire.MsgHello, wire.AppendUvarint(nil, wire.ProtoVersion))
	if err != nil {
		conn.Close()
		return nil, err
	}
	if typ != wire.MsgHelloOK {
		conn.Close()
		return nil, fmt.Errorf("ritree driver: unexpected handshake response %#x", typ)
	}
	return r, nil
}

// roundTrip sends one request and reads its response. A transport
// failure poisons the connection: database/sql discards it and dials a
// fresh one. Server-reported errors (MsgErr) come back as Go errors with
// the connection intact.
func (r *remote) roundTrip(typ byte, payload []byte) (byte, []byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.roundTripLocked(typ, payload)
}

func (r *remote) roundTripLocked(typ byte, payload []byte) (byte, []byte, error) {
	if r.broken {
		return 0, nil, sqldriver.ErrBadConn
	}
	if err := wire.WriteFrame(r.bw, typ, payload); err != nil {
		r.broken = true
		return 0, nil, err
	}
	if err := r.bw.Flush(); err != nil {
		r.broken = true
		return 0, nil, err
	}
	return r.readLocked()
}

// readLocked reads one response frame. Caller holds mu.
func (r *remote) readLocked() (byte, []byte, error) {
	typ, payload, err := r.fr.ReadFrame()
	if err != nil {
		r.broken = true
		return 0, nil, err
	}
	if typ == wire.MsgErr {
		return 0, nil, mapWireErr(wire.DecodeErr(payload))
	}
	return typ, payload, nil
}

// mapWireErr reconstructs sentinel errors from protocol codes.
func mapWireErr(err error) error {
	if we, ok := err.(*wire.WireError); ok && we.Code == wire.CodeTxnConflict {
		return conflictError{we.Msg}
	}
	return err
}

// conflictError is a transaction conflict reported by the server: its
// text is the server's message, which already names the conflict, and it
// unwraps to ritree.ErrTxnConflict.
type conflictError struct{ msg string }

func (e conflictError) Error() string { return e.msg }
func (e conflictError) Unwrap() error { return ritree.ErrTxnConflict }

func (r *remote) query(_ context.Context, sql string, args []int64) (sqldriver.Rows, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := wire.AppendString(r.req[:0], sql)
	b = wire.AppendUvarint(b, fetchBatch)
	r.req = wire.AppendArgs(b, args)
	return r.openCursorLocked(wire.MsgQuery)
}

// openCursorLocked sends the Query or StmtQuery in r.req and reads its
// answer: the RowHeader and the first RowBatch, or an EXPLAIN's plan.
// Caller holds mu.
func (r *remote) openCursorLocked(typ byte) (sqldriver.Rows, error) {
	rtyp, rp, err := r.roundTripLocked(typ, r.req)
	if err != nil {
		return nil, err
	}
	switch rtyp {
	case wire.MsgExecOK:
		_, plan, err := decodeExecOK(rp)
		if err != nil {
			return nil, err
		}
		return planRows(plan), nil
	case wire.MsgRowHeader:
	default:
		return nil, fmt.Errorf("ritree driver: unexpected response %#x to query", rtyp)
	}
	rd := wire.NewReader(rp)
	rr := &remoteRows{r: r, cursorID: rd.Uvarint(), cols: rd.Strings()}
	if rd.Err() != nil {
		r.broken = true // the first batch is still unread
		return nil, rd.Err()
	}
	// An error in the first batch belongs to the cursor, as it would
	// after a Fetch: Next reports it.
	rr.take(r.readLocked())
	return rr, nil
}

func (r *remote) exec(_ context.Context, sql string, args []int64) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.req = wire.AppendArgs(wire.AppendString(r.req[:0], sql), args)
	return r.execLocked(wire.MsgExec)
}

// execLocked sends the Exec or StmtExec in r.req. Caller holds mu.
func (r *remote) execLocked(typ byte) (int64, error) {
	rtyp, rp, err := r.roundTripLocked(typ, r.req)
	if err != nil {
		return 0, err
	}
	if rtyp != wire.MsgExecOK {
		return 0, fmt.Errorf("ritree driver: unexpected response %#x to exec", rtyp)
	}
	affected, _, err := decodeExecOK(rp)
	return affected, err
}

func decodeExecOK(payload []byte) (affected int64, plan string, err error) {
	rd := wire.NewReader(payload)
	affected = rd.Varint()
	plan = rd.String()
	return affected, plan, rd.Err()
}

// prepare parses server-side; execution then travels by statement ID.
func (r *remote) prepare(sql string) (preparedStmt, error) {
	typ, payload, err := r.roundTrip(wire.MsgParse, wire.AppendString(nil, sql))
	if err != nil {
		return nil, err
	}
	if typ != wire.MsgParseOK {
		return nil, fmt.Errorf("ritree driver: unexpected response %#x to parse", typ)
	}
	rd := wire.NewReader(payload)
	st := &remoteStmt{r: r, id: rd.Uvarint(), names: rd.Strings()}
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	return st, nil
}

func (r *remote) ping(context.Context) error {
	typ, _, err := r.roundTrip(wire.MsgPing, nil)
	if err != nil {
		return err
	}
	if typ != wire.MsgPong {
		return fmt.Errorf("ritree driver: unexpected response %#x to ping", typ)
	}
	return nil
}

func (r *remote) metrics() (string, error) {
	typ, payload, err := r.roundTrip(wire.MsgMetrics, nil)
	if err != nil {
		return "", err
	}
	if typ != wire.MsgMetricsData {
		return "", fmt.Errorf("ritree driver: unexpected response %#x to metrics", typ)
	}
	rd := wire.NewReader(payload)
	js := rd.String()
	return js, rd.Err()
}

func (r *remote) close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.broken {
		// Best-effort goodbye; the server also tears down cleanly on EOF.
		wire.WriteFrame(r.bw, wire.MsgTerminate, nil)
		r.bw.Flush()
	}
	r.broken = true
	return r.conn.Close()
}

// remoteStmt executes by server-side statement ID.
type remoteStmt struct {
	r     *remote
	id    uint64
	names []string
}

func (s *remoteStmt) bindNames() []string { return s.names }

func (s *remoteStmt) queryStmt(_ context.Context, args []int64) (sqldriver.Rows, error) {
	r := s.r
	r.mu.Lock()
	defer r.mu.Unlock()
	b := wire.AppendUvarint(r.req[:0], s.id)
	b = wire.AppendUvarint(b, fetchBatch)
	r.req = wire.AppendArgs(b, args)
	return r.openCursorLocked(wire.MsgStmtQuery)
}

func (s *remoteStmt) execStmt(_ context.Context, args []int64) (int64, error) {
	r := s.r
	r.mu.Lock()
	defer r.mu.Unlock()
	r.req = wire.AppendArgs(wire.AppendUvarint(r.req[:0], s.id), args)
	return r.execLocked(wire.MsgStmtExec)
}

func (s *remoteStmt) close() error {
	typ, _, err := s.r.roundTrip(wire.MsgCloseStmt, wire.AppendUvarint(nil, s.id))
	if err != nil {
		if err == sqldriver.ErrBadConn {
			return nil // connection already gone; server tore the stmt down
		}
		return err
	}
	if typ != wire.MsgOK {
		return fmt.Errorf("ritree driver: unexpected response %#x to close-stmt", typ)
	}
	return nil
}

// remoteRows streams a server-side cursor: the batch that came with the
// query's answer, then Fetch-sized batches.
type remoteRows struct {
	r        *remote
	cursorID uint64
	cols     []string
	// vals holds the current batch's nrows rows, values row after row;
	// pos is the next row to hand out.
	vals       []int64
	nrows, pos int
	done       bool  // the server has closed the cursor
	err        error // what ended the stream early
}

func (rr *remoteRows) Columns() []string { return rr.cols }

func (rr *remoteRows) Next(dest []sqldriver.Value) error {
	for rr.pos >= rr.nrows {
		if rr.done {
			if rr.err != nil {
				return rr.err
			}
			return io.EOF
		}
		if err := rr.fetch(); err != nil {
			return err
		}
	}
	ncols := len(rr.cols)
	for i, v := range rr.vals[rr.pos*ncols : (rr.pos+1)*ncols] {
		dest[i] = v
	}
	rr.pos++
	return nil
}

func (rr *remoteRows) fetch() error {
	r := rr.r
	r.mu.Lock()
	defer r.mu.Unlock()
	b := wire.AppendUvarint(r.req[:0], rr.cursorID)
	r.req = wire.AppendUvarint(b, fetchBatch)
	return rr.take(r.roundTripLocked(wire.MsgFetch, r.req))
}

// take installs the answer to a query or a Fetch: the next batch, or the
// error that ended the stream — after which the server holds no cursor.
func (rr *remoteRows) take(typ byte, payload []byte, err error) error {
	if err == nil && typ != wire.MsgRowBatch {
		err = fmt.Errorf("ritree driver: unexpected response %#x, want a row batch", typ)
	}
	if err == nil {
		rr.vals, rr.nrows, rr.done, err = wire.DecodeRows(payload, len(rr.cols), rr.vals)
	}
	rr.pos = 0
	if err != nil {
		rr.nrows, rr.done, rr.err = 0, true, err
	}
	return err
}

// Close releases the server-side cursor (and with it the pinned
// snapshot) unless the stream already finished — the final batch closes
// it server-side, so a result that fit in one batch closes with no round
// trip.
func (rr *remoteRows) Close() error {
	if rr.done {
		return nil
	}
	rr.done = true
	typ, _, err := rr.r.roundTrip(wire.MsgCloseCursor, wire.AppendUvarint(nil, rr.cursorID))
	if err != nil {
		if err == sqldriver.ErrBadConn {
			return nil
		}
		return err
	}
	if typ != wire.MsgOK {
		return fmt.Errorf("ritree driver: unexpected response %#x to close-cursor", typ)
	}
	return nil
}
