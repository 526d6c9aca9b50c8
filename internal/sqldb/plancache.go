package sqldb

import "container/list"

// Plan cache: compiled SELECT plans keyed by the full SQL text, reused
// across executions. The bind-slot refactor (see selectPlan) made plans
// bind-free — a plan references :name binds through env tail slots filled
// at instantiation — so a statement whose shape does not depend on the
// bind *values* can be planned once and re-instantiated per execution.
//
// Eligibility is syntactic (stmtCacheable): no union block may have a
// TABLE(:name) transient source, which resolves a bind-supplied relation
// at plan time and would leak one execution's state into the next.
// Aggregating blocks, grouped or not, are cacheable: their plan holds
// only compiled key and item templates and the plan-time counting
// decision, and each execution builds fresh accumulators.
//
// Cached entries hold live storage handles (*rel.Table, *rel.Index,
// Index). DML never invalidates those — tables are stable objects
// and cursors bind clones onto snapshot views — but any catalog change
// does, so every DDL path (and anything else that alters plan shape,
// like toggling the merge join) purges the cache via bumpEpoch.
//
// Templates are never executed directly: bindPlan mutates a plan's
// storage handles in place, so every use — hit or miss — executes a
// shallow clone (clonePlan) and the template stays pristine.

// DefaultPlanCacheSize is the per-engine entry cap until SetPlanCacheSize
// overrides it.
const DefaultPlanCacheSize = 128

// planEntry is one cached statement: the per-union-block plan templates.
type planEntry struct {
	key   string
	plans []*selectPlan
}

// planCache is an LRU of planEntry. All methods are called under
// Engine.mu; the counters are plain ints read through PlanCacheStats.
type planCache struct {
	size    int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used

	hits, misses, evictions int64
}

func newPlanCache(size int) *planCache {
	return &planCache{size: size, entries: make(map[string]*list.Element), lru: list.New()}
}

func (pc *planCache) enabled() bool { return pc.size > 0 }

// get returns the cached templates for key, counting the lookup as a hit
// or miss.
func (pc *planCache) get(key string) ([]*selectPlan, bool) {
	el, ok := pc.entries[key]
	if !ok {
		pc.misses++
		return nil, false
	}
	pc.hits++
	pc.lru.MoveToFront(el)
	return el.Value.(*planEntry).plans, true
}

// put inserts (or refreshes) key's templates and returns how many entries
// the size cap evicted.
func (pc *planCache) put(key string, plans []*selectPlan) int64 {
	if el, ok := pc.entries[key]; ok {
		el.Value.(*planEntry).plans = plans
		pc.lru.MoveToFront(el)
		return 0
	}
	pc.entries[key] = pc.lru.PushFront(&planEntry{key: key, plans: plans})
	var evicted int64
	for pc.lru.Len() > pc.size {
		back := pc.lru.Back()
		pc.lru.Remove(back)
		delete(pc.entries, back.Value.(*planEntry).key)
		pc.evictions++
		evicted++
	}
	return evicted
}

// bumpEpoch purges every entry — the catalog changed, so any cached
// storage handle may be stale.
func (pc *planCache) bumpEpoch() {
	pc.entries = make(map[string]*list.Element)
	pc.lru.Init()
}

// setSize adjusts the cap; 0 disables caching and clears the cache.
func (pc *planCache) setSize(n int) {
	if n < 0 {
		n = 0
	}
	pc.size = n
	if n == 0 {
		pc.bumpEpoch()
		return
	}
	for pc.lru.Len() > n {
		back := pc.lru.Back()
		pc.lru.Remove(back)
		delete(pc.entries, back.Value.(*planEntry).key)
		pc.evictions++
	}
}

// clonePlan shallow-copies a plan for execution: per-source structs and
// the merge spec are copied (bindPlan mutates their handle fields);
// compiled evalFns, slices, and the bindSlots map are immutable after
// planning and stay shared.
func clonePlan(p *selectPlan) *selectPlan {
	q := *p
	q.sources = make([]*srcPlan, len(p.sources))
	for i, sp := range p.sources {
		c := *sp
		q.sources[i] = &c
	}
	if p.merge != nil {
		m := *p.merge
		q.merge = &m
	}
	return &q
}

// stmtCacheable reports whether every union block of s has an
// execution-independent plan (see the package comment above).
func stmtCacheable(s *SelectStmt) bool {
	for blk := s; blk != nil; blk = blk.Union {
		for _, ref := range blk.From {
			if ref.Collection != "" {
				return false
			}
		}
	}
	return true
}

// SetPlanCacheSize caps the engine's plan cache at n entries; 0 disables
// caching entirely (and clears it).
func (e *Engine) SetPlanCacheSize(n int) {
	e.mu.Lock()
	e.plans.setSize(n)
	e.mu.Unlock()
}

// PlanCacheStats reports the plan cache's lifetime hit/miss/eviction
// counts and its current entry count.
func (e *Engine) PlanCacheStats() (hits, misses, evictions int64, entries int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.plans.hits, e.plans.misses, e.plans.evictions, e.plans.lru.Len()
}

// bumpPlanEpochLocked purges the plan cache at a catalog change. Caller
// holds e.mu.
func (e *Engine) bumpPlanEpochLocked() { e.plans.bumpEpoch() }
