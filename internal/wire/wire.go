// Package wire is the binary protocol shared by cmd/riserver and the
// database/sql driver. A connection is a strict lockstep sequence: the
// client writes one request frame, the server answers it in one flush.
// Every answer is one frame except a successful query's: a RowHeader
// naming the cursor, then the first RowBatch of at most the row count the
// request asked for (MsgErr in its place if the cursor fails). A batch
// that ends the result closes the cursor, so a small SELECT is one round
// trip. A query of an EXPLAIN is answered with ExecOK and its plan text,
// as Exec would answer it. A longer result stays open server-side
// and the client pulls bounded batches with Fetch, so a client that stops
// fetching (LIMIT k, early Rows.Close) stops the server-side scan after
// O(k) work, exactly like an embedded cursor.
//
// Framing: every frame is [uvarint length][1 byte type][payload], where
// length counts the type byte plus the payload. Integers inside payloads
// are varints (signed values zig-zag encoded); strings are
// uvarint-length-prefixed UTF-8; arguments travel as a count followed by
// one signed varint per bind variable, in the statement's bind-name
// order (first appearance in the text). All row values are int64 — the
// SQL engine's only scalar type.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// ProtoVersion is the protocol revision sent in Hello and echoed in
// HelloOK. A server refuses clients with a different version. Version 2
// carries positional arguments and answers a query with its first batch.
const ProtoVersion = 2

// MaxFrame bounds a single frame (64 MiB): a decoder rejects anything
// larger rather than allocating unboundedly on a corrupt length prefix.
const MaxFrame = 1 << 26

// Message types. Client requests are low values, server responses have
// the high bit set; the split is cosmetic (each side only ever decodes
// the other's set) but makes captures easy to read.
const (
	MsgHello       byte = 0x01 // uvarint protoVersion
	MsgQuery       byte = 0x02 // string sql, uvarint firstBatch, args
	MsgExec        byte = 0x03 // string sql, args
	MsgParse       byte = 0x04 // string sql
	MsgStmtQuery   byte = 0x05 // uvarint stmtID, uvarint firstBatch, args
	MsgStmtExec    byte = 0x06 // uvarint stmtID, args
	MsgFetch       byte = 0x07 // uvarint cursorID, uvarint max
	MsgCloseCursor byte = 0x08 // uvarint cursorID
	MsgCloseStmt   byte = 0x09 // uvarint stmtID
	MsgPing        byte = 0x0A //
	MsgMetrics     byte = 0x0B //
	MsgTerminate   byte = 0x0C //

	MsgHelloOK     byte = 0x81 // uvarint protoVersion, string server
	MsgErr         byte = 0x82 // string code, string msg
	MsgParseOK     byte = 0x83 // uvarint stmtID, []string bindNames
	MsgRowHeader   byte = 0x84 // uvarint cursorID, []string cols
	MsgRowBatch    byte = 0x85 // byte done, uvarint nrows, nrows*ncols varints
	MsgExecOK      byte = 0x86 // varint affected, string plan
	MsgPong        byte = 0x87 //
	MsgMetricsData byte = 0x88 // string json
	MsgOK          byte = 0x89 //
)

// Error codes carried by MsgErr. CodeTxnConflict is the one the driver
// maps back to ritree.ErrTxnConflict so errors.Is works across the wire;
// everything else surfaces as a plain error string.
const (
	CodeError       = "error"
	CodeTxnConflict = "txn_conflict"
	CodeProtocol    = "protocol"
)

// ErrFrameTooLarge rejects a frame whose length prefix exceeds MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// WriteFrame writes one [len][type][payload] frame.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return ErrFrameTooLarge
	}
	// A buffered writer (bufio.Writer, bytes.Buffer) lends its free space
	// for the header, which then costs no allocation.
	var hdr []byte
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		hdr = ab.AvailableBuffer()
	}
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)+1))
	if _, err := w.Write(append(hdr, typ)); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame into a freshly allocated payload.
func ReadFrame(r *bufio.Reader) (typ byte, payload []byte, err error) {
	typ, payload, _, err = readFrame(r, nil)
	return typ, payload, err
}

// FrameReader reads a connection's frames into one payload buffer it
// owns and reuses, so reading a frame allocates nothing once the buffer
// has grown to the connection's frame size. A payload is valid until the
// next ReadFrame; a reader copies out what it keeps.
type FrameReader struct {
	br  *bufio.Reader
	buf []byte
}

// maxKeptFrame is the largest buffer a FrameReader keeps between frames:
// one huge frame does not pin its size for the life of the connection.
const maxKeptFrame = 1 << 20

// NewFrameReader reads frames from r through a bufio.Reader.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{br: bufio.NewReader(r)} }

// ReadFrame reads the next frame into the reader's buffer.
func (fr *FrameReader) ReadFrame() (typ byte, payload []byte, err error) {
	if cap(fr.buf) > maxKeptFrame {
		fr.buf = nil
	}
	typ, payload, fr.buf, err = readFrame(fr.br, fr.buf)
	return typ, payload, err
}

// readFrame reads one frame into buf's storage, returning the type, the
// payload and the possibly grown buffer. The buffer grows as bytes
// arrive, at most 64 KiB ahead of them, so a corrupt or hostile length
// prefix costs what the peer actually sent, not MaxFrame.
func readFrame(r *bufio.Reader, buf []byte) (byte, []byte, []byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, buf, err
	}
	if n == 0 || n > MaxFrame {
		return 0, nil, buf, ErrFrameTooLarge
	}
	buf = buf[:0]
	for len(buf) < int(n) {
		chunk := min(int(n)-len(buf), 64<<10)
		buf = slices.Grow(buf, chunk)
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+chunk])
		buf = buf[:len(buf)+got]
		if err != nil {
			if err == io.EOF && len(buf) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, buf, err
		}
	}
	return buf[0], buf[1:], buf, nil
}

// Append helpers build payloads without an encoder object.

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(b, tmp[:binary.PutUvarint(tmp[:], v)]...)
}

// AppendVarint appends v as a zig-zag signed varint.
func AppendVarint(b []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(b, tmp[:binary.PutVarint(tmp[:], v)]...)
}

// AppendString appends s with a uvarint length prefix.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendStrings appends a counted list of strings.
func AppendStrings(b []byte, ss []string) []byte {
	b = AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// AppendArgs appends positional arguments: a count, then each value.
func AppendArgs(b []byte, args []int64) []byte {
	b = AppendUvarint(b, uint64(len(args)))
	for _, v := range args {
		b = AppendVarint(b, v)
	}
	return b
}

// Reader decodes a payload sequentially. Decode errors latch: every
// getter after a failure returns the zero value, and Err reports the
// first failure, so call sites read a whole message then check once.
type Reader struct {
	buf []byte
	err error
}

// NewReader wraps a payload.
func NewReader(payload []byte) *Reader { return &Reader{buf: payload} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated or corrupt payload")
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a zig-zag signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Byte reads a single byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.fail()
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.buf)) < n {
		r.fail()
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// Strings reads a counted list of strings.
func (r *Reader) Strings() []string {
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(r.buf)) { // each string costs >= 1 byte
		r.fail()
		return nil
	}
	ss := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		ss = append(ss, r.String())
	}
	if r.err != nil {
		return nil
	}
	return ss
}

// Args reads positional arguments, appending them to dst[:0] (nil when
// there are none and dst is nil).
func (r *Reader) Args(dst []int64) []int64 {
	dst = dst[:0]
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return dst
	}
	if n > uint64(len(r.buf)) { // each value costs >= 1 byte
		r.fail()
		return dst
	}
	for i := uint64(0); i < n; i++ {
		dst = append(dst, r.Varint())
	}
	if r.err != nil {
		return dst[:0]
	}
	return dst
}

// AppendRow appends one row's values as varints: the body of a RowBatch.
// ncols is fixed by the preceding RowHeader, so rows carry no per-row
// length.
func AppendRow(b []byte, row []int64) []byte {
	for _, v := range row {
		b = AppendVarint(b, v)
	}
	return b
}

// AppendRowBatch appends a RowBatch payload: the done flag, the row
// count, then rows, nrows rows as AppendRow encoded them.
func AppendRowBatch(b []byte, done bool, nrows int, rows []byte) []byte {
	if done {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = AppendUvarint(b, uint64(nrows))
	return append(b, rows...)
}

// DecodeRows parses a RowBatch payload into dst[:0], row after row, so a
// reader can reuse one buffer for every batch; ncols comes from the
// cursor's RowHeader.
func DecodeRows(payload []byte, ncols int, dst []int64) (vals []int64, nrows int, done bool, err error) {
	r := NewReader(payload)
	done = r.Byte() == 1
	n := r.Uvarint()
	// Each row costs at least ncols bytes: guard n before allocating.
	if r.err == nil && (ncols < 0 || n > uint64(len(r.buf))/uint64(max(ncols, 1))+1) {
		r.fail()
	}
	if r.err != nil {
		return dst[:0], 0, false, r.err
	}
	vals = slices.Grow(dst[:0], int(n)*ncols)
	for i := uint64(0); i < n*uint64(ncols); i++ {
		vals = append(vals, r.Varint())
	}
	if r.err != nil {
		return dst[:0], 0, false, r.err
	}
	return vals, int(n), done, nil
}

// WireError is a server-reported error with its protocol code, so the
// driver can map CodeTxnConflict back onto ritree.ErrTxnConflict.
type WireError struct {
	Code string
	Msg  string
}

func (e *WireError) Error() string { return e.Msg }

// DecodeErr parses a MsgErr payload.
func DecodeErr(payload []byte) error {
	r := NewReader(payload)
	code, msg := r.String(), r.String()
	if r.err != nil {
		return r.err
	}
	return &WireError{Code: code, Msg: msg}
}

// EncodeErr builds a MsgErr payload.
func EncodeErr(code, msg string) []byte {
	return AppendString(AppendString(nil, code), msg)
}
