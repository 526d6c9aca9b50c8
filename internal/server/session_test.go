package server

import (
	"bufio"
	"errors"
	"net"
	"slices"
	"strings"
	"testing"

	"ritree"
	"ritree/internal/wire"
)

// testClient speaks the wire protocol to one session over an in-memory
// pipe; done closes when the session has torn down.
type testClient struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	done chan struct{}
}

func connect(t *testing.T, srv *Server) *testClient {
	t.Helper()
	cli, srvSide := net.Pipe()
	c := &testClient{t: t, conn: cli, br: bufio.NewReader(cli), bw: bufio.NewWriter(cli), done: make(chan struct{})}
	sess := newSession(srv, srvSide)
	go func() {
		sess.run()
		close(c.done)
	}()
	if typ, _ := c.roundTrip(wire.MsgHello, wire.AppendUvarint(nil, wire.ProtoVersion)); typ != wire.MsgHelloOK {
		t.Fatalf("handshake answered %#x", typ)
	}
	return c
}

func (c *testClient) roundTrip(typ byte, payload []byte) (byte, []byte) {
	c.t.Helper()
	if err := wire.WriteFrame(c.bw, typ, payload); err != nil {
		c.t.Fatal(err)
	}
	if err := c.bw.Flush(); err != nil {
		c.t.Fatal(err)
	}
	rtyp, rpayload, err := wire.ReadFrame(c.br)
	if err != nil {
		c.t.Fatal(err)
	}
	return rtyp, rpayload
}

// exec runs one statement, returning the server's error if it sent one.
func (c *testClient) exec(sql string) error {
	c.t.Helper()
	typ, payload := c.roundTrip(wire.MsgExec, wire.AppendArgs(wire.AppendString(nil, sql), nil))
	switch typ {
	case wire.MsgExecOK:
		return nil
	case wire.MsgErr:
		return wire.DecodeErr(payload)
	}
	c.t.Fatalf("%s: answered %#x", sql, typ)
	return nil
}

func (c *testClient) mustExec(sql string) {
	c.t.Helper()
	if err := c.exec(sql); err != nil {
		c.t.Fatalf("%s: %v", sql, err)
	}
}

// disconnect closes the client side and waits for the session teardown.
func (c *testClient) disconnect() {
	c.conn.Close()
	<-c.done
}

// TestFailedCommitReleasesTransaction replays the sequence that let a
// closing connection roll back another connection's transaction: A's
// COMMIT fails on a conflict, which already frees the engine's one
// transaction; B then opens its own; A disconnects. A's teardown must
// not roll back B's transaction.
func TestFailedCommitReleasesTransaction(t *testing.T) {
	db, err := ritree.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	col, err := db.CreateCollection("resv")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Options{Logf: t.Logf})
	a, b := connect(t, srv), connect(t, srv)

	a.mustExec("BEGIN")
	a.mustExec("INSERT INTO resv VALUES (1, 2, 1)")
	if err := col.Insert(ritree.NewInterval(5, 6), 2); err != nil {
		t.Fatal(err)
	}
	if err := a.exec("COMMIT"); err == nil || !strings.Contains(err.Error(), "transaction conflict") {
		t.Fatalf("A's COMMIT = %v, want a transaction conflict", err)
	}
	b.mustExec("BEGIN")
	b.mustExec("INSERT INTO resv VALUES (3, 4, 3)")
	a.disconnect()
	b.mustExec("COMMIT")
	ids, err := col.Intersecting(ritree.NewInterval(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, []int64{2, 3}) {
		t.Fatalf("ids after B's COMMIT = %v, want [2 3]", ids)
	}
	b.disconnect()
}

// TestV1HelloRefused: a client of protocol version 1, which bound by name
// and fetched every batch in a round trip of its own, is refused at the
// handshake with the version error, and the session ends.
func TestV1HelloRefused(t *testing.T) {
	db, err := ritree.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := New(db, Options{Logf: t.Logf})
	cli, srvSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		newSession(srv, srvSide).run()
		close(done)
	}()
	c := &testClient{t: t, conn: cli, br: bufio.NewReader(cli), bw: bufio.NewWriter(cli), done: done}
	typ, payload := c.roundTrip(wire.MsgHello, wire.AppendUvarint(nil, 1))
	if typ != wire.MsgErr {
		t.Fatalf("v1 Hello answered %#x, want MsgErr", typ)
	}
	var we *wire.WireError
	if err := wire.DecodeErr(payload); !errors.As(err, &we) ||
		we.Code != wire.CodeProtocol || we.Msg != "unsupported protocol version" {
		t.Fatalf("v1 Hello refused with %#v", err)
	}
	<-done
	cli.Close()
}
