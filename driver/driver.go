// Package driver is a database/sql driver for ritree. It registers as
// "ritree" and accepts three DSN forms:
//
//	tcp://host:port   — connect to a riserver over the wire protocol
//	mem://            — open a private in-memory database in-process
//	file://path.pages — open (or create) a file-backed database in-process
//
// The embedded forms share one *ritree.DB per sql.DB handle (every
// pooled connection sees the same database, exactly like the TCP form
// sees one server), so
//
//	db, err := sql.Open("ritree", "tcp://127.0.0.1:7432")
//
// and mem:// behave identically up to latency. The full SQL surface is
// available: DDL, DML with binds, the ALLEN_* interval operators,
// BEGIN/COMMIT/ROLLBACK through sql.Tx (a conflicting commit returns an
// error satisfying errors.Is(err, ritree.ErrTxnConflict), embedded or
// remote), and streaming SELECT — rows cross the wire in bounded batches,
// the first inside the query's reply, so a small SELECT is one round
// trip, and sql.Rows.Close stops the server-side scan one batch after
// the rows read.
//
// Values are int64 (the engine's only scalar type); int and int32
// convert on the way in. Placeholders are the engine's named binds
// (:name) — positional arguments map onto the distinct bind names in
// first-appearance order, and sql.Named works too. EXPLAIN statements
// run through Query and come back as a single "plan" text column.
package driver

import (
	"context"
	"database/sql"
	sqldriver "database/sql/driver"
	"fmt"
	"strings"
	"sync"

	"ritree"
)

func init() {
	sql.Register("ritree", &Driver{})
}

// Driver is the ritree database/sql driver.
type Driver struct{}

// Open opens a single connection. database/sql uses OpenConnector (so
// embedded DSNs share one DB per pool); Open exists for completeness.
func (d *Driver) Open(dsn string) (sqldriver.Conn, error) {
	c, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector validates the DSN once and returns the connector the
// sql.DB pool dials through.
func (d *Driver) OpenConnector(dsn string) (sqldriver.Connector, error) {
	switch {
	case strings.HasPrefix(dsn, "tcp://"):
		addr := strings.TrimPrefix(dsn, "tcp://")
		if addr == "" {
			return nil, fmt.Errorf("ritree driver: empty address in %q", dsn)
		}
		return &Connector{drv: d, mode: modeTCP, target: addr}, nil
	case dsn == "mem://":
		return &Connector{drv: d, mode: modeMem}, nil
	case strings.HasPrefix(dsn, "file://"):
		path := strings.TrimPrefix(dsn, "file://")
		if path == "" {
			return nil, fmt.Errorf("ritree driver: empty path in %q", dsn)
		}
		return &Connector{drv: d, mode: modeFile, target: path}, nil
	default:
		return nil, fmt.Errorf("ritree driver: unsupported DSN %q (want tcp://, mem:// or file://)", dsn)
	}
}

const (
	modeTCP = iota
	modeMem
	modeFile
)

// Connector dials connections for one DSN. For the embedded modes it
// owns the shared *ritree.DB, opened on first Connect and closed by
// sql.DB.Close (database/sql calls Close on connectors implementing
// io.Closer).
type Connector struct {
	drv    *Driver
	mode   int
	target string

	mu sync.Mutex
	db *ritree.DB
}

// Connect opens one driver connection.
func (c *Connector) Connect(ctx context.Context) (sqldriver.Conn, error) {
	switch c.mode {
	case modeTCP:
		r, err := dialRemote(ctx, c.target)
		if err != nil {
			return nil, err
		}
		return &conn{be: r}, nil
	default:
		db, err := c.sharedDB()
		if err != nil {
			return nil, err
		}
		return &conn{be: &embedded{db: db, s: db.Session()}}, nil
	}
}

func (c *Connector) sharedDB() (*ritree.DB, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.db != nil {
		return c.db, nil
	}
	var err error
	if c.mode == modeMem {
		c.db, err = ritree.OpenMemory()
	} else {
		c.db, err = ritree.Open(c.target)
	}
	return c.db, err
}

// Driver returns the parent driver.
func (c *Connector) Driver() sqldriver.Driver { return c.drv }

// DB returns the shared embedded database behind a mem:// or file://
// connector (opening it if no connection has yet), so an application can
// mix database/sql access with the native API — collections, metrics,
// programmatic scans — on the same store. Build the connector with
// (&Driver{}).OpenConnector and hand it to sql.OpenDB. Errors for tcp://
// connectors: the database lives in the server process.
func (c *Connector) DB() (*ritree.DB, error) {
	if c.mode == modeTCP {
		return nil, fmt.Errorf("ritree driver: DB() on a tcp:// connector (the database is remote)")
	}
	return c.sharedDB()
}

// Close closes the shared embedded database, if one was opened. TCP
// connections close individually with their conns.
func (c *Connector) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.db == nil {
		return nil
	}
	db := c.db
	c.db = nil
	return db.Close()
}

// MetricsFetcher is implemented by every connection this driver hands
// out: ServerMetrics returns the database's metrics snapshot as JSON —
// the remote server's for tcp:// connections, the in-process registry's
// for embedded ones. Reach it through sql.Conn.Raw:
//
//	conn.Raw(func(dc interface{}) error {
//		js, err := dc.(driver.MetricsFetcher).ServerMetrics()
//		...
//	})
type MetricsFetcher interface {
	ServerMetrics() (string, error)
}
