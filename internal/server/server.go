// Package server hosts one ritree.DB behind the wire protocol
// (internal/wire): a TCP listener, one goroutine and one session per
// connection. Sessions share the database — its engine serializes
// statements — but each owns its prepared statements, its open cursors
// (server-side ritree.Rows, so a client that stops fetching stops the
// scan), and its transaction (a ritree.Session).
// Teardown is unconditional: however a connection ends — Terminate, EOF,
// a mid-stream kill — the session closes every open cursor (releasing
// the pinned snapshot views) and rolls back its in-flight transaction.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"ritree"
	"ritree/internal/obs"
	"ritree/internal/wire"
)

// Options configures a Server.
type Options struct {
	// Logf receives connection-level events (accept, teardown, protocol
	// errors). Nil discards them.
	Logf func(format string, args ...interface{})
}

// Server serves one database over the wire protocol.
type Server struct {
	db   *ritree.DB
	logf func(string, ...interface{})
	met  *metrics

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*session]struct{}
	closed   bool

	wg sync.WaitGroup
}

// New builds a server for db. Serve must be called to accept.
func New(db *ritree.DB, opts Options) *Server {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	return &Server{
		db:       db,
		logf:     logf,
		met:      newMetrics(db.MetricsRegistry()),
		sessions: make(map[*session]struct{}),
	}
}

// Serve accepts connections on ln until Shutdown (which returns nil
// here) or a permanent accept error. One listener per server.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	if s.ln != nil {
		s.mu.Unlock()
		return errors.New("server: already serving")
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.met.connections.Inc()
		sess := newSession(s, conn)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.sessions[sess] = struct{}{}
		s.met.sessionsActive.Add(1)
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			sess.run()
			s.mu.Lock()
			delete(s.sessions, sess)
			s.mu.Unlock()
			s.met.sessionsActive.Add(-1)
		}()
	}
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown stops accepting and drains: sessions finish their in-flight
// request and are then disconnected. When ctx expires first, remaining
// connections are closed hard; session teardown still runs either way
// (cursors closed, transaction rolled back), so the database is quiescent
// when Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for sess := range s.sessions {
		sess.drain()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for sess := range s.sessions {
			sess.kill()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close shuts down immediately: listener and every connection.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: Shutdown goes straight to kill
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// metrics holds the server's registry handles ("server.*" families).
type metrics struct {
	connections    *obs.Counter
	sessionsActive *obs.Gauge
	bytesIn        *obs.Counter
	bytesOut       *obs.Counter
	latency        map[byte]*obs.Histogram
}

// msgNames keys the per-message-type latency histograms.
var msgNames = map[byte]string{
	wire.MsgHello:       "hello",
	wire.MsgQuery:       "query",
	wire.MsgExec:        "exec",
	wire.MsgParse:       "parse",
	wire.MsgStmtQuery:   "stmt_query",
	wire.MsgStmtExec:    "stmt_exec",
	wire.MsgFetch:       "fetch",
	wire.MsgCloseCursor: "close_cursor",
	wire.MsgCloseStmt:   "close_stmt",
	wire.MsgPing:        "ping",
	wire.MsgMetrics:     "metrics",
}

func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{
		connections:    reg.Counter("server.connections"),
		sessionsActive: reg.Gauge("server.sessions.active"),
		bytesIn:        reg.Counter("server.bytes.in"),
		bytesOut:       reg.Counter("server.bytes.out"),
		latency:        make(map[byte]*obs.Histogram, len(msgNames)),
	}
	for typ, name := range msgNames {
		m.latency[typ] = reg.Histogram("server.latency." + name)
	}
	return m
}

// observe records one handled request's latency.
func (m *metrics) observe(typ byte, d time.Duration) {
	if h, ok := m.latency[typ]; ok {
		h.Record(d.Nanoseconds())
	}
}

// stdLogf adapts the standard logger for Options.Logf.
func stdLogf(format string, args ...interface{}) { log.Printf(format, args...) }

// StdLogf is a ready-made Options.Logf writing through the log package.
var StdLogf = stdLogf

// countingConn wraps a net.Conn, feeding the byte counters.
type countingConn struct {
	net.Conn
	in, out *obs.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// errProtocol marks a client violation severe enough to drop the
// connection after reporting it.
func errProtocol(format string, args ...interface{}) error {
	return fmt.Errorf("protocol: "+format, args...)
}
