package dist

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestMirrorEvictionDeterministicLRU(t *testing.T) {
	m := newMirror(100)
	m.insert(CacheKey{1, 1}, 40) // oldest
	m.insert(CacheKey{2, 1}, 40)
	m.insert(CacheKey{3, 1}, 20) // cache now full at 100

	// 60 incoming bytes with datum 3 pinned: must evict (1,1) then (2,1),
	// oldest first.
	ev := m.planEvict([]CacheKey{{3, 1}}, 60)
	if len(ev) != 2 || ev[0] != (CacheKey{1, 1}) || ev[1] != (CacheKey{2, 1}) {
		t.Fatalf("evictions = %v", ev)
	}
	if m.total != 20 {
		t.Fatalf("total = %d, want 20", m.total)
	}
	if m.has(CacheKey{1, 1}) || !m.has(CacheKey{3, 1}) {
		t.Fatal("wrong residency after eviction")
	}
}

func TestMirrorTouchChangesVictim(t *testing.T) {
	m := newMirror(100)
	m.insert(CacheKey{1, 1}, 50)
	m.insert(CacheKey{2, 1}, 50)
	m.touch(CacheKey{1, 1}) // (2,1) becomes LRU

	ev := m.planEvict(nil, 50)
	if len(ev) != 1 || ev[0] != (CacheKey{2, 1}) {
		t.Fatalf("evictions = %v, want [(2,1)]", ev)
	}
}

func TestMirrorPinnedOverflowTolerated(t *testing.T) {
	m := newMirror(10)
	m.insert(CacheKey{1, 1}, 8)
	// Everything pinned and incoming exceeds budget: nothing to evict,
	// overflow is accepted (the working set must be resident regardless).
	ev := m.planEvict([]CacheKey{{1, 1}}, 8)
	if len(ev) != 0 {
		t.Fatalf("evicted pinned entries: %v", ev)
	}
	if !m.has(CacheKey{1, 1}) {
		t.Fatal("pinned entry gone")
	}
}

func TestWorkerCacheObeysOrders(t *testing.T) {
	c := newWCache()
	c.put(CacheKey{1, 1}, []byte{1})
	c.put(CacheKey{2, 1}, []byte{2})
	c.applyEvict([]CacheKey{{1, 1}, {9, 9}}) // unknown keys ignored
	if _, ok := c.get(CacheKey{1, 1}); ok {
		t.Fatal("evicted entry still cached")
	}
	if b, ok := c.get(CacheKey{2, 1}); !ok || b[0] != 2 {
		t.Fatal("surviving entry lost")
	}
}

// refMirror is the mirror's previous implementation, kept as the reference
// model: a recency clock per entry and a full sort by (lastUse, key) on
// every eviction plan.
type refMirror struct {
	entries map[CacheKey]*refEntry
	total   int64
	budget  int64
	tick    uint64
	evicted int64
}

type refEntry struct {
	size    int64
	lastUse uint64
}

func newRefMirror(budget int64) *refMirror {
	return &refMirror{entries: make(map[CacheKey]*refEntry), budget: budget}
}

func (m *refMirror) touch(k CacheKey) {
	if e, ok := m.entries[k]; ok {
		m.tick++
		e.lastUse = m.tick
	}
}

func (m *refMirror) insert(k CacheKey, size int64) {
	m.tick++
	if e, ok := m.entries[k]; ok {
		e.lastUse = m.tick
		return
	}
	m.entries[k] = &refEntry{size: size, lastUse: m.tick}
	m.total += size
}

func (m *refMirror) planEvict(pinned []CacheKey, incoming int64) []CacheKey {
	if m.total+incoming <= m.budget {
		return nil
	}
	pin := make(map[CacheKey]bool, len(pinned))
	for _, k := range pinned {
		pin[k] = true
	}
	type cand struct {
		key CacheKey
		e   *refEntry
	}
	var cands []cand
	for k, e := range m.entries {
		if !pin[k] {
			cands = append(cands, cand{k, e})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.e.lastUse != b.e.lastUse {
			return a.e.lastUse < b.e.lastUse
		}
		if a.key.Datum != b.key.Datum {
			return a.key.Datum < b.key.Datum
		}
		return a.key.Ver < b.key.Ver
	})
	var out []CacheKey
	for _, c := range cands {
		if m.total+incoming <= m.budget {
			break
		}
		delete(m.entries, c.key)
		m.total -= c.e.size
		m.evicted++
		out = append(out, c.key)
	}
	return out
}

// TestMirrorMatchesReference drives the list-based mirror and the
// sort-based reference through the same seeded random sequences of
// inserts, touches and eviction plans (random pins, incoming sizes and
// budgets) and requires identical eviction lists, totals, lifetime
// eviction counts and residency after every step. The eviction lists are
// the wire contract with the worker cache, so any divergence would break
// the mirror–worker lockstep.
func TestMirrorMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		budget := int64(64 + rng.Intn(2048))
		m, ref := newMirror(budget), newRefMirror(budget)
		var evicted int64
		keys := 8 + rng.Intn(120)
		key := func() CacheKey {
			return CacheKey{Datum: uint64(rng.Intn(keys)), Ver: uint64(rng.Intn(3))}
		}
		for step := 0; step < 3000; step++ {
			var op string
			switch r := rng.Intn(10); {
			case r < 4:
				k, size := key(), int64(1+rng.Intn(128))
				op = fmt.Sprintf("insert %v %d", k, size)
				m.insert(k, size)
				ref.insert(k, size)
			case r < 7:
				k := key()
				op = fmt.Sprintf("touch %v", k)
				m.touch(k)
				ref.touch(k)
			default:
				pinned := make([]CacheKey, rng.Intn(6))
				for i := range pinned {
					pinned[i] = key()
				}
				incoming := int64(rng.Intn(256))
				op = fmt.Sprintf("planEvict %v %d", pinned, incoming)
				got, want := m.planEvict(pinned, incoming), ref.planEvict(pinned, incoming)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d %s: evict %v, reference %v", seed, step, op, got, want)
				}
				evicted += int64(len(got))
			}
			if m.total != ref.total || evicted != ref.evicted || len(m.entries) != len(ref.entries) {
				t.Fatalf("seed %d step %d %s: total %d evicted %d entries %d, reference %d %d %d",
					seed, step, op, m.total, evicted, len(m.entries), ref.total, ref.evicted, len(ref.entries))
			}
			for k := range ref.entries {
				if !m.has(k) {
					t.Fatalf("seed %d step %d %s: %v resident in reference only", seed, step, op, k)
				}
			}
		}
	}
}

// BenchmarkMirrorPlanEvict measures one steady-state dispatch against a
// full mirror of ~10k resident entries: touch a pinned working set,
// evict room for one new output, insert it. Its cost tracks the entries
// evicted, not the entries resident.
func BenchmarkMirrorPlanEvict(b *testing.B) {
	const resident, size = 10000, 1024
	m := newMirror(resident * size)
	for i := 0; i < resident; i++ {
		m.insert(CacheKey{Datum: uint64(i), Ver: 1}, size)
	}
	pinned := make([]CacheKey, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range pinned {
			pinned[j] = CacheKey{Datum: uint64((i + j*97) % resident), Ver: 1}
			m.touch(pinned[j])
		}
		k := CacheKey{Datum: uint64(resident + i), Ver: 2}
		if ev := m.planEvict(pinned, size); len(ev) != 1 {
			b.Fatalf("evicted %d entries, want 1", len(ev))
		}
		m.insert(k, size)
	}
}
