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

// fetchBatch is how many rows a remote cursor pulls per Fetch round
// trip: large enough to amortize the round trip, small enough that a
// LIMIT-k client stops the server-side scan after O(k) leaf rows.
const fetchBatch = 512

// remote is the wire-protocol client backend behind a tcp:// DSN. The
// protocol is strict lockstep, so one mutex serializes round trips; an
// open cursor interleaves its Fetch round trips with other statements on
// the same connection because every request names its cursor.
type remote struct {
	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	broken bool
}

// dialRemote connects and performs the Hello handshake.
func dialRemote(ctx context.Context, addr string) (*remote, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	r := &remote{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	typ, payload, err := r.roundTrip(wire.MsgHello, wire.AppendUvarint(nil, wire.ProtoVersion))
	if err != nil {
		conn.Close()
		return nil, err
	}
	if typ != wire.MsgHelloOK {
		conn.Close()
		return nil, fmt.Errorf("ritree driver: unexpected handshake response %#x", typ)
	}
	_ = payload
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
	rtyp, rpayload, err := wire.ReadFrame(r.br)
	if err != nil {
		r.broken = true
		return 0, nil, err
	}
	if rtyp == wire.MsgErr {
		return 0, nil, mapWireErr(wire.DecodeErr(rpayload))
	}
	return rtyp, rpayload, nil
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

func toWireBinds(binds map[string]interface{}) map[string]int64 {
	if len(binds) == 0 {
		return nil
	}
	out := make(map[string]int64, len(binds))
	for k, v := range binds {
		out[k] = v.(int64) // buildBinds admitted int64 only
	}
	return out
}

func (r *remote) query(ctx context.Context, sql string, binds map[string]interface{}) (sqldriver.Rows, error) {
	b := wire.AppendString(nil, sql)
	b = wire.AppendBinds(b, toWireBinds(binds))
	return r.openCursor(wire.MsgQuery, b)
}

// openCursor sends a Query/StmtQuery and wraps the resulting RowHeader.
func (r *remote) openCursor(typ byte, payload []byte) (sqldriver.Rows, error) {
	rtyp, rp, err := r.roundTrip(typ, payload)
	if err != nil {
		return nil, err
	}
	if rtyp != wire.MsgRowHeader {
		return nil, fmt.Errorf("ritree driver: unexpected response %#x to query", rtyp)
	}
	rd := wire.NewReader(rp)
	cursorID := rd.Uvarint()
	cols := rd.Strings()
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	return &remoteRows{r: r, cursorID: cursorID, cols: cols}, nil
}

func (r *remote) exec(_ context.Context, sql string, binds map[string]interface{}) (int64, string, error) {
	b := wire.AppendString(nil, sql)
	b = wire.AppendBinds(b, toWireBinds(binds))
	return r.decodeExecOK(r.roundTrip(wire.MsgExec, b))
}

func (r *remote) decodeExecOK(typ byte, payload []byte, err error) (int64, string, error) {
	if err != nil {
		return 0, "", err
	}
	if typ != wire.MsgExecOK {
		return 0, "", fmt.Errorf("ritree driver: unexpected response %#x to exec", typ)
	}
	rd := wire.NewReader(payload)
	affected := rd.Varint()
	plan := rd.String()
	if rd.Err() != nil {
		return 0, "", rd.Err()
	}
	return affected, plan, nil
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
	id := rd.Uvarint()
	rd.Strings() // server's bind-name view; the conn derives its own
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	return &remoteStmt{r: r, id: id}, nil
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
	r  *remote
	id uint64
}

func (s *remoteStmt) queryStmt(ctx context.Context, binds map[string]interface{}) (sqldriver.Rows, error) {
	b := wire.AppendUvarint(nil, s.id)
	b = wire.AppendBinds(b, toWireBinds(binds))
	return s.r.openCursor(wire.MsgStmtQuery, b)
}

func (s *remoteStmt) execStmt(_ context.Context, binds map[string]interface{}) (int64, string, error) {
	b := wire.AppendUvarint(nil, s.id)
	b = wire.AppendBinds(b, toWireBinds(binds))
	return s.r.decodeExecOK(s.r.roundTrip(wire.MsgStmtExec, b))
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

// remoteRows streams a server-side cursor in Fetch-sized batches.
type remoteRows struct {
	r        *remote
	cursorID uint64
	cols     []string
	buf      [][]int64
	pos      int
	done     bool
}

func (rr *remoteRows) Columns() []string { return rr.cols }

func (rr *remoteRows) Next(dest []sqldriver.Value) error {
	for rr.pos >= len(rr.buf) {
		if rr.done {
			return io.EOF
		}
		if err := rr.fetch(); err != nil {
			return err
		}
	}
	for i, v := range rr.buf[rr.pos] {
		dest[i] = v
	}
	rr.pos++
	return nil
}

func (rr *remoteRows) fetch() error {
	b := wire.AppendUvarint(nil, rr.cursorID)
	b = wire.AppendUvarint(b, fetchBatch)
	typ, payload, err := rr.r.roundTrip(wire.MsgFetch, b)
	if err != nil {
		rr.done = true
		return err
	}
	if typ != wire.MsgRowBatch {
		rr.done = true
		return fmt.Errorf("ritree driver: unexpected response %#x to fetch", typ)
	}
	rows, done, err := wire.DecodeRowBatch(payload, len(rr.cols))
	if err != nil {
		rr.done = true
		return err
	}
	rr.buf, rr.pos, rr.done = rows, 0, done
	return nil
}

// Close releases the server-side cursor (and with it the pinned
// snapshot) unless the stream already finished — the final batch closes
// it server-side.
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
