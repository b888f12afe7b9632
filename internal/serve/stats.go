// The /statsz recent-query ring: a fixed window of the last QueryRingSize
// completed queries, newest first. One summary per query — SQL, request ID,
// cache disposition, timing, cardinality, and the operator that dominated
// self time — so an operator can answer "what has this server been doing"
// without scraping logs. The ring is deliberately tiny and mutex-guarded:
// inserting one summary per query is nothing next to executing the query.
package serve

import "sync"

// QueryRingSize is how many completed queries GET /statsz remembers.
const QueryRingSize = 32

// QuerySummary is one completed query in the /statsz ring.
type QuerySummary struct {
	SQL       string `json:"sql"`
	RequestID string `json:"request_id,omitempty"`
	// Cache is the plan-cache disposition: "hit" or "miss".
	Cache     string `json:"cache,omitempty"`
	ElapsedNS int64  `json:"elapsed_ns"`
	Rows      int64  `json:"rows"`
	// Path is the regime that answered: "summary", "pruned", or "regen"
	// (see QueryResponse.Path).
	Path string `json:"path,omitempty"`
	// Pruned is the number of tuples scan pruning proved non-matching and
	// never generated for this query (0 when pruning did not apply).
	Pruned int64 `json:"pruned,omitempty"`
	// TopOp is the operator with the largest self time when the query was
	// traced, else the plan's root operator.
	TopOp string `json:"top_op,omitempty"`
}

// queryRing is a fixed-size overwrite ring of query summaries.
type queryRing struct {
	mu   sync.Mutex
	buf  [QueryRingSize]QuerySummary
	next int // slot the next add writes
	n    int // live entries, <= QueryRingSize
}

// add records one completed query, evicting the oldest once full.
func (q *queryRing) add(s QuerySummary) {
	q.mu.Lock()
	q.buf[q.next] = s
	q.next = (q.next + 1) % QueryRingSize
	if q.n < QueryRingSize {
		q.n++
	}
	q.mu.Unlock()
}

// snapshot copies the ring's contents newest-first.
func (q *queryRing) snapshot() []QuerySummary {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		return nil
	}
	out := make([]QuerySummary, q.n)
	for i := 0; i < q.n; i++ {
		out[i] = q.buf[(q.next-1-i+QueryRingSize)%QueryRingSize]
	}
	return out
}
