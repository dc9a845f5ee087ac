package dist

import "sync"

// centry is one mirrored cache entry: the coordinator's record that a
// worker holds the bytes of one (datum, version) pair. Entries form an
// intrusive doubly linked list in recency order around the mirror's
// sentinel; pinned is scratch state, set only for the duration of one
// planEvict.
type centry struct {
	key        CacheKey
	size       int64
	prev, next *centry
	pinned     bool
}

// mirror is the coordinator's deterministic model of one worker's version
// cache. The worker itself never makes an eviction decision: every task
// message carries the explicit Evict list this mirror computed, and the
// worker applies it verbatim. Because each worker executes at most one
// task at a time and messages on its connection are ordered, the mirror
// and the real cache see the same operations in the same order and can
// never disagree — which is what lets the coordinator skip shipping bytes
// (WireRef.Bytes = nil) whenever the mirror says the pair is resident.
//
// Replacement is least-recently-used, oldest first; entries the current
// task needs are pinned for the decision. Every touch or insert moves its
// entry to the back of the recency list, so the list is always in
// last-use order and planEvict walks it from the front, costing the
// entries it evicts or skips rather than the whole cache. Insertion
// happens in two steps matching the worker's behaviour: read misses
// insert at dispatch (the worker caches shipped bytes as soon as they
// arrive), task outputs insert only after the worker reports success (a
// failed writer's outputs never enter either cache).
type mirror struct {
	entries map[CacheKey]*centry
	lru     centry // sentinel: lru.next is the least recently used entry
	total   int64
	budget  int64
}

func newMirror(budget int64) *mirror {
	m := &mirror{entries: make(map[CacheKey]*centry), budget: budget}
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	return m
}

// has reports residency without touching recency.
func (m *mirror) has(k CacheKey) bool {
	_, ok := m.entries[k]
	return ok
}

// hitBytes sums the sizes of the given keys that are resident — the
// scheduler's affinity score for placing a task on this worker.
func (m *mirror) hitBytes(keys []CacheKey) int64 {
	var n int64
	for _, k := range keys {
		if e, ok := m.entries[k]; ok {
			n += e.size
		}
	}
	return n
}

// unlink takes e off the recency list.
func unlink(e *centry) { e.prev.next, e.next.prev = e.next, e.prev }

// pushBack makes e the most recently used entry.
func (m *mirror) pushBack(e *centry) {
	e.prev, e.next = m.lru.prev, &m.lru
	e.prev.next, m.lru.prev = e, e
}

// touch marks a resident key used now.
func (m *mirror) touch(k CacheKey) {
	if e, ok := m.entries[k]; ok {
		unlink(e)
		m.pushBack(e)
	}
}

// planEvict makes room for `incoming` new bytes while keeping every key in
// `pinned` resident, and returns the eviction list, least recently used
// first. Entries never seen by the current task are evicted oldest-first
// until the cache fits. If even evicting everything unpinned cannot fit
// the incoming bytes, the remaining overflow is tolerated: the task's own
// working set must be resident regardless, so the budget is a target, not
// a hard wall.
func (m *mirror) planEvict(pinned []CacheKey, incoming int64) []CacheKey {
	if m.total+incoming <= m.budget {
		return nil
	}
	for _, k := range pinned {
		if e, ok := m.entries[k]; ok {
			e.pinned = true
		}
	}
	var out []CacheKey
	for e := m.lru.next; e != &m.lru && m.total+incoming > m.budget; {
		next := e.next
		if !e.pinned {
			unlink(e)
			delete(m.entries, e.key)
			m.total -= e.size
			out = append(out, e.key)
		}
		e = next
	}
	for _, k := range pinned {
		if e, ok := m.entries[k]; ok {
			e.pinned = false
		}
	}
	return out
}

// insert records a newly resident pair (idempotent on re-insert, which
// counts as a use).
func (m *mirror) insert(k CacheKey, size int64) {
	e, ok := m.entries[k]
	if ok {
		unlink(e)
	} else {
		e = &centry{key: k, size: size}
		m.entries[k] = e
		m.total += size
	}
	m.pushBack(e)
}

// wcache is the worker-side real cache: a dumb map that applies the
// coordinator's orders. No sizes, no policy — policy lives in the mirror.
// The mutex exists for the peer-fetch server: other workers' fetch
// connections read entries concurrently with the task loop's inserts and
// evictions. Payload slices are immutable once cached (kernels receive
// them read-only), so handing them out under a read lock is safe.
type wcache struct {
	mu      sync.RWMutex
	entries map[CacheKey][]byte
}

func newWCache() *wcache { return &wcache{entries: make(map[CacheKey][]byte)} }

func (c *wcache) get(k CacheKey) ([]byte, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	b, ok := c.entries[k]
	return b, ok
}

func (c *wcache) put(k CacheKey, b []byte) {
	c.mu.Lock()
	c.entries[k] = b
	c.mu.Unlock()
}

func (c *wcache) applyEvict(keys []CacheKey) {
	if len(keys) == 0 {
		return
	}
	c.mu.Lock()
	for _, k := range keys {
		delete(c.entries, k)
	}
	c.mu.Unlock()
}
