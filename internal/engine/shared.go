package engine

import (
	"runtime"
	"sync"
	"weak"
)

// A regenerated table is a pure function of its summary, so a hash join's
// build side depends on its build leaf alone — the table, the filter region
// on it, and the key column indexed — never on the query around it.
// sharedBuilds is the database's one canonicalizing layer of drained build
// sides, written and read only by Prepare (drainBuilds): a Prepare whose
// join has a live entry takes that *preparedBuild into its own builds map,
// and a Prepare that drains one publishes it, so however many Prepareds
// hold a leaf, it was drained and is stored once.
//
// The layer holds hash builds only: stored, paced and datagen tables, keys
// other than a primary key, and filters a plan's reading leaves residual. A
// join on the primary key of a summary-backed table is positional
// (positionalLeaf) — it looks keys up in the summary, drains nothing, and
// leaves nothing here.
//
// Entries are weak: one is found for as long as some Prepared holds it (and
// perhaps a little longer, until the GC clears the pointer — results are
// identical either way; only who drains differs), and a cleanup removes the
// dead key. The layer never bounds memory itself; the Prepareds that hold
// its builds do. The map is cleared, under mu, by every registration
// (AddRelation, SetDatagen, SetSummary), the one event that changes what a
// build reads. gen makes the clear stick against a drain in flight — a
// registration made mid-drain, say from inside the drained source: a build
// drained before a clear is not published after it.
type sharedBuilds struct {
	mu  sync.Mutex
	m   map[buildLeaf]weak.Pointer[preparedBuild]
	gen uint64
}

// buildLeaf names a join's build side by what alone determines it: its
// leaf — the table of a bare scan, Region.Key() of a filter over a scan
// (which starts with the table and, the region being constrained, never
// equals a bare table name) — and the key column the index is built on.
// The batch size is not part of it: arena content is independent of it.
type buildLeaf struct {
	leaf string
	key  int
}

// buildLeafOf returns join pn's build leaf. BuildPlan's build child is
// always one table's leaf: a scan, or a filter over one.
func buildLeafOf(pn *PlanNode) buildLeaf {
	if c := pn.Children[1]; c.Op == OpFilter {
		return buildLeaf{c.Pred.Key(), pn.RightKey}
	}
	return buildLeaf{pn.Children[1].Table, pn.RightKey}
}

// get returns the live build for k, nil if there is none, and the layer's
// generation, which a drain that follows a miss hands back to put.
func (s *sharedBuilds) get(k buildLeaf) (*preparedBuild, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[k].Value(), s.gen
}

// put publishes pb, drained after a get at generation gen, under k and
// returns the build its Prepare should hold: pb itself, or the live entry a
// concurrent Prepare published first. A build drained before a clear is
// returned unpublished.
func (s *sharedBuilds) put(k buildLeaf, pb *preparedBuild, gen uint64) *preparedBuild {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen != gen {
		return pb
	}
	if live := s.m[k].Value(); live != nil {
		return live
	}
	wp := weak.Make(pb)
	s.m[k] = wp
	runtime.AddCleanup(pb, s.forget, deadBuild{k, wp})
	return pb
}

// deadBuild is what a cleanup needs to remove a collected entry: its key,
// and its weak pointer, so an entry published since under the same key
// stays.
type deadBuild struct {
	k  buildLeaf
	wp weak.Pointer[preparedBuild]
}

func (s *sharedBuilds) forget(d deadBuild) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m[d.k] == d.wp {
		delete(s.m, d.k)
	}
}

// clear drops every entry; Prepareds that hold one keep it.
func (s *sharedBuilds) clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.m)
	s.gen++
}

// bytes sums the live builds' footprint, each counted once.
func (s *sharedBuilds) bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, wp := range s.m {
		if pb := wp.Value(); pb != nil {
			n += pb.jb.bytes()
		}
	}
	return n
}

// SharedBuildBytes reports the bytes held by the hash-join build sides live
// in the database's shared layer, each counted once however many Prepareds
// hold it: per build its populated arenas plus its key index. Positional
// joins hold no build and add nothing.
func (db *Database) SharedBuildBytes() int64 { return db.builds.bytes() }
