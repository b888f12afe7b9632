// The serve-side plan/build cache: steady-state traffic against one
// summary repeats a small set of query shapes, and for each of them the
// expensive half of execution — parsing, planning, and above all draining
// hash-join build sides into arenas — is a pure function of the database.
// The cache keys normalized SQL to an engine.Prepared (compiled plan + the
// read-only build arenas it drained), so a cache hit pays probe cost only.
// A summary-backed key join is positional and drains nothing, so a miss
// drains only hash builds. The summary never changes under a running
// server, so an entry stays valid until the LRU evicts it.
package serve

import (
	"container/list"
	"strings"
	"sync"

	"repro/internal/engine"
)

// DefaultCacheSize is the server's LRU capacity. An entry is one compiled
// plan plus the arenas of its hash builds, if any; a few dozen cover a
// realistic dashboard workload.
const DefaultCacheSize = 64

// normalizeSQL collapses the whitespace variance of otherwise-identical
// queries into one cache key. Quoted string literals are copied verbatim
// (a doubled quote stays an escaped quote) — whitespace inside a literal is data, and a
// key that aliased 'a  b' to 'a b' would serve one query's answer for the
// other. Case is preserved throughout for the same reason.
func normalizeSQL(sql string) string {
	var sb strings.Builder
	sb.Grow(len(sql))
	inLit := false
	pendingSpace := false
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		if inLit {
			sb.WriteByte(c)
			if c == '\'' {
				if i+1 < len(sql) && sql[i+1] == '\'' {
					sb.WriteByte('\'')
					i++
					continue
				}
				inLit = false
			}
			continue
		}
		switch c {
		case ' ', '\t', '\n', '\r':
			pendingSpace = true
		default:
			if pendingSpace && sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			pendingSpace = false
			if c == '\'' {
				inLit = true
			}
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// planCache is a mutex-guarded, single-flight LRU from normalized SQL to
// prepared executions. Lookups and insertions are O(1); eviction drops the
// least recently used entry once the size cap is reached.
type planCache struct {
	mu       sync.Mutex
	cap      int
	lru      *list.List // front = most recently used; values are *cacheEntry
	entries  map[string]*list.Element
	inflight map[string]*inflightPrepare

	hits, misses int64
}

type cacheEntry struct {
	key  string
	prep *engine.Prepared
}

// inflightPrepare coalesces concurrent misses on one key: the first caller
// builds, the rest wait on done and share the outcome.
type inflightPrepare struct {
	done chan struct{}
	prep *engine.Prepared
	err  error
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:      capacity,
		lru:      list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*inflightPrepare),
	}
}

// get returns the prepared execution for key, promoting it to
// most-recently-used. A hit is recorded here; a miss is not — the caller
// proceeds into do, which accounts for how the miss was ultimately served
// (built, coalesced onto another build, or found freshly inserted), so
// hits + misses equals requests even under single flight.
func (c *planCache) get(key string) (*engine.Prepared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).prep, true
}

// putLocked inserts (or refreshes) key's prepared execution, evicting the
// least recently used entry beyond the size cap. The caller holds c.mu.
func (c *planCache) putLocked(key string, prep *engine.Prepared) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).prep = prep
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, prep: prep})
	for c.lru.Len() > c.cap {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
}

// do returns key's prepared execution, invoking build at most once across
// concurrent callers (single flight): under a cold-start thundering herd,
// one request drains the hash-join build sides and the rest wait for it
// instead of each paying the heaviest cost the cache exists to amortize.
// The winner's result is inserted; a build error is shared, not cached.
//
// built reports whether this caller ran the build. It mirrors the stats:
// the builder records the miss; a caller that finds the entry inserted
// since its lookup, or coalesces onto an in-flight build that succeeds,
// was served by the cache and records a hit.
func (c *planCache) do(key string, build func() (*engine.Prepared, error)) (prep *engine.Prepared, built bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok { // inserted since the caller's miss
		c.hits++
		c.lru.MoveToFront(el)
		prep := el.Value.(*cacheEntry).prep
		c.mu.Unlock()
		return prep, false, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-fl.done
		if fl.err == nil {
			c.mu.Lock()
			c.hits++
			c.mu.Unlock()
		}
		return fl.prep, false, fl.err
	}
	fl := &inflightPrepare{done: make(chan struct{})}
	c.inflight[key] = fl
	c.misses++
	c.mu.Unlock()

	fl.prep, fl.err = build()
	close(fl.done)

	// One critical section retires the in-flight record and inserts, so no
	// request can observe neither an inflight record nor a cache entry and
	// start a redundant build.
	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil {
		c.putLocked(key, fl.prep)
	}
	c.mu.Unlock()
	if fl.err != nil {
		return nil, true, fl.err
	}
	return fl.prep, true, nil
}

// CacheStats is a point-in-time snapshot of cache effectiveness. Hits
// counts requests served without running a build — direct lookups,
// single-flight waiters that shared a winner's result, and lookups that
// found the entry inserted between their miss and their build attempt;
// Misses counts builds. Hits + Misses therefore equals requests (failed
// builds excepted: the builder's miss is recorded, its waiters record
// nothing), so the hit rate stays honest under a coalesced cold-start herd.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
	Cap     int   `json:"cap"`
}

func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.lru.Len(), Cap: c.cap}
}
