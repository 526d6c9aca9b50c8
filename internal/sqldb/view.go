package sqldb

import (
	"fmt"
	"slices"

	"ritree/internal/pagestore"
	"ritree/internal/rel"
)

// Snapshot execution views: the machinery that lets a SELECT cursor run
// to completion without holding any engine or database lock.
//
// A view pins a page-store snapshot at a committed boundary and opens a
// read-only shadow rel.DB over it (pagestore.Snapshot implements Backend,
// so the whole relational stack stacks on top unchanged). Plans compiled
// for a cursor are then bound onto the shadow's tables and indexes, and
// every custom (domain) index is read through a Reader bound to the
// shadow — the same Index.Reader call a live read makes with the live
// database.
//
// Views are reference-counted and cached: consecutive read statements
// share one view, and any write statement invalidates the cache at its
// commit boundary, so the next reader pins a fresh snapshot. A view (and
// its snapshot's pre-image retention) lives exactly as long as the
// cursors and transactions using it.

// readState is one relational state with the Readers of the domain
// indexes bound to it: the shadow database of a snapshot view, or the
// live database for the statements that read it under e.mu (DELETE's
// victim scan).
type readState struct {
	db      *rel.DB
	readers map[Index]Reader
	// now is each table's evaluation clock for now-relative rows (§4.6):
	// that of its first index keeping one, captured when the state was
	// bound so a concurrent SetNow cannot shift answers mid-cursor. Tables
	// without such an index are absent (now = 0).
	now map[string]int64 // by lower-cased table name
}

// bindTable binds the domain indexes of one table to rs.db. Caller holds
// e.mu.
func (rs *readState) bindTable(table string, indexes []Index) error {
	for _, ci := range indexes {
		rd, err := ci.Reader(rs.db)
		if err != nil {
			return fmt.Errorf("sql: binding index %s: %w", ci.Name(), err)
		}
		rs.readers[ci] = rd
		if _, set := rs.now[table]; !set {
			if now, ok := rd.Now(); ok {
				rs.now[table] = now
			}
		}
	}
	return nil
}

func newReadState(db *rel.DB) readState {
	return readState{db: db, readers: map[Index]Reader{}, now: map[string]int64{}}
}

// execView is one pinned snapshot of the database, shared by every cursor
// (and transaction) reading from it. refs is guarded by Engine.viewLk.
type execView struct {
	readState
	snap *pagestore.Snapshot
	refs int
}

// newExecViewLocked pins the current committed state as a view. Caller
// holds e.mu, which is what guarantees the committed-boundary requirement
// of AcquireSnapshot (every write statement commits before releasing it).
func (e *Engine) newExecViewLocked() (*execView, error) {
	st := e.db.Store()
	snap, err := st.AcquireSnapshot()
	if err != nil {
		return nil, err
	}
	shadowStore, err := pagestore.New(snap, pagestore.Options{
		PageSize:  st.PageSize(),
		CacheSize: st.CacheSize(),
	})
	if err != nil {
		snap.Release()
		return nil, err
	}
	shadow, err := rel.OpenDB(shadowStore, e.db.CatalogRoot())
	if err != nil {
		snap.Release()
		return nil, err
	}
	rs := newReadState(shadow)
	for table, indexes := range e.customByTb {
		if err := rs.bindTable(table, indexes); err != nil {
			snap.Release()
			return nil, err
		}
	}
	if m := e.sqlMet.Load(); m != nil {
		m.viewsPinned.Inc()
		m.viewsActive.Add(1)
	}
	return &execView{readState: rs, snap: snap, refs: 1}, nil
}

// acquireViewLocked returns a referenced view for a read statement on s:
// the pinned view of s's transaction when one is open, else the cached
// current view, else a freshly pinned one. Caller holds e.mu (which is
// why reuse is sound — every write path invalidates the cache under it).
// Pair with releaseView.
func (e *Engine) acquireViewLocked(s *Session) (*execView, error) {
	e.viewLk.Lock()
	v := e.curView
	if s.txn != nil {
		v = s.txn.view
	}
	if v != nil {
		v.refs++
		e.viewLk.Unlock()
		return v, nil
	}
	e.viewLk.Unlock()
	v, err := e.newExecViewLocked()
	if err != nil {
		return nil, err
	}
	// Publish as the cache's own reference on top of the caller's.
	e.viewLk.Lock()
	v.refs++
	e.curView = v
	e.viewLk.Unlock()
	return v, nil
}

// releaseView drops one reference; the last one releases the snapshot
// (unpinning its pre-image retention). Runs without e.mu — cursors close
// on the reader's goroutine.
func (e *Engine) releaseView(v *execView) {
	if v == nil {
		return
	}
	e.viewLk.Lock()
	v.refs--
	free := v.refs == 0
	e.viewLk.Unlock()
	if free {
		v.snap.Release()
		// sqlMet is an atomic pointer for exactly this path: no e.mu here.
		if m := e.sqlMet.Load(); m != nil {
			m.viewsReleased.Inc()
			m.viewsActive.Add(-1)
		}
	}
}

// invalidateViewLocked retires the cached view at a write's commit
// boundary: later readers pin a fresh snapshot. Cursors still running on
// the old view keep it alive through their own references. Caller holds
// e.mu.
func (e *Engine) invalidateViewLocked() {
	e.viewLk.Lock()
	v := e.curView
	e.curView = nil
	e.viewLk.Unlock()
	if v != nil {
		e.releaseView(v)
	}
}

// bindPlan points a freshly compiled (or cloned) plan at one relational
// state: its tables and B+-tree indexes, the Reader of each source's
// domain index, and each source's now-clock. The executor reads every
// handle through the plan when it runs, so a plan bound to a view never
// touches live storage.
func bindPlan(p *selectPlan, rs *readState) error {
	for _, sp := range p.sources {
		if sp.tab == nil {
			continue
		}
		// Plans compile against the live catalog; only a transaction's view
		// can predate it (DDL from another session since BEGIN).
		tab, err := rs.db.Table(sp.tab.Name())
		if err != nil {
			return err
		}
		if !slices.Equal(tab.Schema().Columns, sp.tab.Schema().Columns) {
			return fmt.Errorf("%w: table %s was recreated", ErrTxnConflict, tab.Name())
		}
		sp.tab = tab
		if sp.ix != nil {
			name := sp.ix.Name()
			if sp.ix, err = rs.db.Index(name); err != nil {
				return fmt.Errorf("%w: index %s was created", ErrTxnConflict, name)
			}
		}
		if sp.custom != nil {
			rd, ok := rs.readers[sp.custom]
			if !ok {
				return fmt.Errorf("%w: index %s was created", ErrTxnConflict, sp.custom.Name())
			}
			sp.reader = rd
		}
		sp.now = rs.now[sp.ref.Name]
	}
	return nil
}
