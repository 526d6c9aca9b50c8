package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := AppendString(AppendUvarint(nil, 42), "SELECT 1")
	if err := WriteFrame(&buf, MsgQuery, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, MsgPing, nil); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&buf)
	typ, got, err := ReadFrame(r)
	if err != nil || typ != MsgQuery || !bytes.Equal(got, payload) {
		t.Fatalf("frame 1: typ=%#x err=%v", typ, err)
	}
	typ, got, err = ReadFrame(r)
	if err != nil || typ != MsgPing || len(got) != 0 {
		t.Fatalf("frame 2: typ=%#x len=%d err=%v", typ, len(got), err)
	}
}

func TestPrimitiveRoundTrip(t *testing.T) {
	b := AppendVarint(nil, -12345)
	b = AppendUvarint(b, 1<<40)
	b = AppendString(b, "héllo")
	b = AppendStrings(b, []string{"a", "b", "c"})
	b = AppendArgs(b, []int64{-7, 9})

	r := NewReader(b)
	if v := r.Varint(); v != -12345 {
		t.Fatalf("varint = %d", v)
	}
	if v := r.Uvarint(); v != 1<<40 {
		t.Fatalf("uvarint = %d", v)
	}
	if s := r.String(); s != "héllo" {
		t.Fatalf("string = %q", s)
	}
	if ss := r.Strings(); !reflect.DeepEqual(ss, []string{"a", "b", "c"}) {
		t.Fatalf("strings = %v", ss)
	}
	args := r.Args(nil)
	if !reflect.DeepEqual(args, []int64{-7, 9}) {
		t.Fatalf("args = %v", args)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestRowBatchRoundTrip(t *testing.T) {
	rows := [][]int64{{1, -2, 3}, {4, 5, -6}}
	got, done, err := DecodeRowBatch(EncodeRowBatch(rows, true), 3)
	if err != nil || !done || !reflect.DeepEqual(got, rows) {
		t.Fatalf("rows=%v done=%v err=%v", got, done, err)
	}
	got, done, err = DecodeRowBatch(EncodeRowBatch(nil, false), 3)
	if err != nil || done || len(got) != 0 {
		t.Fatalf("empty batch: rows=%v done=%v err=%v", got, done, err)
	}
}

func TestTruncatedPayloads(t *testing.T) {
	full := AppendString(nil, "hello world")
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		_ = r.String()
		if r.Err() == nil {
			t.Fatalf("no error at cut %d", cut)
		}
	}
	// A corrupt count must not cause a giant allocation.
	b := AppendUvarint(nil, 1<<40)
	if ss := NewReader(b).Strings(); ss != nil {
		t.Fatal("corrupt string count decoded")
	}
	r := NewReader(b)
	if n := allocated(func() { _ = r.Args(nil) }); n > 1<<10 || r.Err() == nil {
		t.Fatalf("corrupt argument count decoded (err %v, %d bytes allocated)", r.Err(), n)
	}
	if _, _, err := DecodeRowBatch(append([]byte{0}, AppendUvarint(nil, 1<<40)...), 2); err == nil {
		t.Fatal("corrupt row count decoded")
	}
}

func TestWireErrorRoundTrip(t *testing.T) {
	err := DecodeErr(EncodeErr(CodeTxnConflict, "conflict: table t changed"))
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeTxnConflict || we.Msg != "conflict: table t changed" {
		t.Fatalf("err = %#v", err)
	}
}

// allocated reports the bytes fn allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHostileLengthsAllocateLittle: a length prefix or row count the
// bytes that follow cannot back costs about what arrived, not what it
// claims.
func TestHostileLengthsAllocateLittle(t *testing.T) {
	frame := append(AppendUvarint(nil, MaxFrame), MsgRowBatch, 1, 2, 3)
	var err error
	if n := allocated(func() { _, _, err = ReadFrame(bufio.NewReader(bytes.NewReader(frame))) }); n > 1<<20 {
		t.Fatalf("a %d-byte truncated frame allocated %d bytes", len(frame), n)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: err = %v", err)
	}
	batch := append([]byte{0}, AppendUvarint(nil, 4000)...)
	batch = append(batch, make([]byte, 4000)...)
	if n := allocated(func() { _, _, err = DecodeRowBatch(batch, 255) }); n > 1<<20 {
		t.Fatalf("a %d-byte batch of 4000 rows × 255 columns allocated %d bytes", len(batch), n)
	}
	if err == nil {
		t.Fatal("a batch too short for its rows decoded")
	}
}

// TestFrameReaderReusesPayload: a FrameReader reads 1,000 small frames
// with no allocation after the first, and each payload is the frame's.
func TestFrameReaderReusesPayload(t *testing.T) {
	var stream bytes.Buffer
	const frames = 1002 // the first, AllocsPerRun's warm-up, then 1,000
	var payloads [frames][]byte
	for i := range payloads {
		payloads[i] = AppendArgs(AppendUvarint(AppendUvarint(nil, uint64(i%7)), 512), []int64{int64(i), -int64(i)})
		if err := WriteFrame(&stream, MsgStmtQuery, payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&stream)
	i := 0
	read := func() {
		typ, got, err := fr.ReadFrame()
		if err != nil || typ != MsgStmtQuery || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("frame %d: typ=%#x payload=%v err=%v", i, typ, got, err)
		}
		i++
	}
	read()
	if n := testing.AllocsPerRun(1000, read); n != 0 {
		t.Fatalf("%.2f allocations per frame after the first, want 0", n)
	}
	if _, _, err := fr.ReadFrame(); err != io.EOF {
		t.Fatalf("after %d frames: err = %v, want EOF", i, err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(AppendUvarint(nil, MaxFrame+1))
	if _, _, err := ReadFrame(bufio.NewReader(&buf)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

// FuzzWireFrame reads arbitrary bytes as a stream of frames and decodes
// every payload with each Reader getter and message decoder. Nothing may
// panic, and a frame may not cost more memory than the bytes that arrived.
func FuzzWireFrame(f *testing.F) {
	frame := func(typ byte, payload []byte) []byte {
		var b bytes.Buffer
		if err := WriteFrame(&b, typ, payload); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	args := AppendArgs(nil, []int64{-7, 9})
	f.Add(frame(MsgHello, AppendUvarint(nil, ProtoVersion)), uint8(0))
	f.Add(frame(MsgQuery, append(AppendUvarint(AppendString(nil, "SELECT 1"), 512), args...)), uint8(0))
	f.Add(frame(MsgStmtQuery, append(AppendUvarint(AppendUvarint(nil, 7), 512), args...)), uint8(0))
	f.Add(frame(MsgStmtExec, append(AppendUvarint(nil, 7), args...)), uint8(0))
	// A query's answer: the RowHeader and the first RowBatch in one read.
	f.Add(append(frame(MsgRowHeader, AppendStrings(AppendUvarint(nil, 1), []string{"id", "lower"})),
		frame(MsgRowBatch, EncodeRowBatch([][]int64{{4, 10}, {9, 1 << 40}}, true))...), uint8(2))
	f.Add(frame(MsgStmtExec, append(AppendUvarint(nil, 7), AppendUvarint(nil, 1<<40)...)), uint8(0))
	f.Add(frame(MsgParseOK, AppendStrings(AppendUvarint(nil, 42), []string{"a", "b", "c"})), uint8(0))
	f.Add(frame(MsgRowBatch, EncodeRowBatch([][]int64{{1, -2, 3}, {1 << 40, 0, -1}}, true)), uint8(3))
	f.Add(frame(MsgErr, EncodeErr(CodeTxnConflict, "conflict: table t changed")), uint8(0))
	f.Add(append(AppendUvarint(nil, MaxFrame), MsgRowBatch), uint8(2))
	f.Add(append([]byte{0}, AppendUvarint(nil, 1<<40)...), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, ncols uint8) {
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			_, payload, err := ReadFrame(br)
			if err != nil {
				return
			}
			if cap(payload) > 2*len(data)+64<<10 {
				t.Fatalf("a %d-byte input allocated a %d-byte frame", len(data), cap(payload))
			}
			r := NewReader(payload)
			_, _, _, _ = r.Uvarint(), r.Varint(), r.Byte(), r.String()
			_, _ = r.Strings(), r.Args(nil)
			if args := NewReader(payload).Args(nil); len(args) > len(payload) {
				t.Fatalf("a %d-byte payload decoded to %d arguments", len(payload), len(args))
			}
			rows, _, err := DecodeRowBatch(payload, int(ncols))
			if err == nil && len(rows)*max(int(ncols), 1) > len(payload)+int(ncols) {
				t.Fatalf("a %d-byte batch decoded to %d rows of %d columns", len(payload), len(rows), ncols)
			}
			_ = DecodeErr(payload)
		}
	})
}

// EncodeRowBatch builds the RowBatch payload of rows.
func EncodeRowBatch(rows [][]int64, done bool) []byte {
	var body []byte
	for _, row := range rows {
		body = AppendRow(body, row)
	}
	return AppendRowBatch(nil, done, len(rows), body)
}

// DecodeRowBatch parses a RowBatch payload into one slice per row.
func DecodeRowBatch(payload []byte, ncols int) (rows [][]int64, done bool, err error) {
	vals, n, done, err := DecodeRows(payload, ncols, nil)
	if err != nil {
		return nil, false, err
	}
	rows = make([][]int64, n)
	for i := range rows {
		rows[i] = vals[i*ncols : (i+1)*ncols]
	}
	return rows, done, nil
}
