package summary

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"time"

	"repro/internal/lp"
	"repro/internal/preprocess"
	"repro/internal/region"
	"repro/internal/schema"
	"repro/internal/value"
)

// BuildOptions tune summary construction.
type BuildOptions struct {
	// NoInhabitation disables the cross-relation inhabitation (GE)
	// propagation — an ablation switch: without it, dimension LPs may
	// leave cells empty that fact segments draw foreign keys from, and
	// accuracy degrades to clamped fallbacks (see experiments.E10Ablation).
	NoInhabitation bool
}

// DefaultBuildOptions returns the options used by the demo flows.
func DefaultBuildOptions() BuildOptions { return BuildOptions{} }

// RelationReport describes one relation's summary construction, including
// the LP complexity numbers the demo's vendor interface tabulates.
type RelationReport struct {
	Table       string
	Constraints int
	Regions     int
	// Groups is the number of independent constraint groups (disjoint
	// axis footprints) the relation's LP decomposed into.
	Groups   int
	LPVars   int   // region-partitioning atoms (Hydra), summed over groups
	GridVars int64 // grid-partitioning cells (DataSynth baseline)
	Pivots   int
	LPObj    float64
	// Residuals holds the non-zero signed deviations per constraint label
	// after integerization.
	Residuals map[string]int64
	// MaxAbsResidual and SumAbsResidual aggregate the deviations.
	MaxAbsResidual int64
	SumAbsResidual int64
	SummaryRows    int
	PartitionTime  time.Duration
	SolveTime      time.Duration
	// NeedsTime is the time spent propagating this relation's inhabitation
	// requirements to the relations its foreign keys reference.
	NeedsTime time.Duration
	AlignTime time.Duration
	// ClampedRows counts tuples whose foreign-key set had to be clamped
	// by referential post-processing (the paper's "minor additive
	// errors").
	ClampedRows int64
}

// BuildReport aggregates per-relation reports.
type BuildReport struct {
	Relations []*RelationReport
	TotalTime time.Duration
	// SummaryBytes is the size of the summary's EncodeJSON encoding, the
	// file `hydra vendor` writes.
	SummaryBytes int
}

// TotalLPVars sums the LP variable counts across relations.
func (b *BuildReport) TotalLPVars() int {
	n := 0
	for _, r := range b.Relations {
		n += r.LPVars
	}
	return n
}

// TotalClampedRows sums the clamped tuple counts across relations.
func (b *BuildReport) TotalClampedRows() int64 {
	var n int64
	for _, r := range b.Relations {
		n += r.ClampedRows
	}
	return n
}

// TotalGridVars sums the grid cell counts across relations, saturating.
func (b *BuildReport) TotalGridVars() int64 {
	var n int64
	for _, r := range b.Relations {
		if n+r.GridVars < n {
			return int64(^uint64(0) >> 1)
		}
		n += r.GridVars
	}
	return n
}

// Build constructs the database summary from a preprocessed workload. It is
// the heart of Hydra's vendor site and runs in three passes:
//
//  1. Prepare (any order). Every constraint region is resolved over the
//     relation's DENORMALIZED constraint space: one axis per own attribute
//     a predicate touches, plus one virtual axis per dimension attribute
//     reached through a foreign key ("fkcol.axis"). Cell boundaries on
//     every axis are the client's predicate constants — the geometry never
//     fragments with the referenced relation's layout. The constraint set
//     then DECOMPOSES into groups with disjoint axis footprints: regions in
//     different groups can be satisfied independently, so each group gets
//     its own signature partition and LP, and the LP sizes ADD rather than
//     multiply — the region-partitioning scalability the paper claims over
//     grid partitioning.
//  2. Solve (reverse topological order: referencing relations first). Each
//     group's relaxed LP is solved and integerized, the group layouts are
//     overlaid into pk segments, and every populated segment propagates an
//     inhabitation requirement ("at least one tuple in this cell", a GE
//     row) to the relations its foreign keys reference, so the dimension
//     solutions keep every cell alive that a fact segment will draw keys
//     from. What this cross-relation consistency step cannot satisfy
//     surfaces later as the paper's "minor additive errors".
//  3. Materialize (forward topological order: dimensions first).
//     Deterministic alignment assigns each segment a contiguous primary-key
//     range, recorded with its representative point in the builder's
//     alignment index; referencing relations materialize foreign keys by
//     selecting exactly the dimension segments inside their cells — no
//     sampling, so volumetric error stays deterministic. The index stays
//     with the builder: the summary ships only the rows.
//
// Crucially, nothing here reads data rows: construction cost depends only
// on the schema and the workload, which is the paper's data-scale-free
// property (experiment E3).
func Build(s *schema.Schema, w *preprocess.Workload, opts BuildOptions) (*Database, *BuildReport, error) {
	db, report, _, err := build(s, w, opts)
	return db, report, err
}

// build is Build, also returning the builder state of every relation.
func build(s *schema.Schema, w *preprocess.Workload, opts BuildOptions) (*Database, *BuildReport, map[string]*relBuild, error) {
	start := time.Now()
	order, err := s.TopoOrder()
	if err != nil {
		return nil, nil, nil, err
	}
	db := &Database{Schema: s, Relations: make(map[string]*Relation, len(order))}
	report := &BuildReport{}

	// Pass 1: prepare.
	builds := make(map[string]*relBuild, len(order))
	for _, t := range order {
		rb, err := prepareRelation(t, s, w, opts)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("summary: relation %s: %w", t.Name, err)
		}
		builds[t.Name] = rb
		report.Relations = append(report.Relations, rb.rr)
	}

	// Pass 2: solve, referencing relations first, propagating
	// inhabitation requirements downward.
	for i := len(order) - 1; i >= 0; i-- {
		rb := builds[order[i].Name]
		if err := rb.solve(opts); err != nil {
			return nil, nil, nil, fmt.Errorf("summary: relation %s: %w", rb.t.Name, err)
		}
		if opts.NoInhabitation {
			continue
		}
		if err := rb.propagateNeeds(builds); err != nil {
			return nil, nil, nil, fmt.Errorf("summary: relation %s: %w", rb.t.Name, err)
		}
	}

	// Pass 3: align and materialize, dimensions first.
	for _, t := range order {
		db.Relations[t.Name] = builds[t.Name].materialize(builds)
	}

	report.TotalTime = time.Since(start)
	if n, err := db.Size(); err == nil {
		report.SummaryBytes = n
	}
	return db, report, builds, nil
}

// axisInfo describes one axis of a relation's denormalized constraint
// space.
type axisInfo struct {
	Key    string // own column name, or "fkcol." + referenced axis key
	OwnCol int    // column index when the axis is an own attribute, else -1
	Domain value.Interval
}

// conGroup is one independent constraint group: a set of axes no region
// outside the group touches, its own partition, and its own LP.
type conGroup struct {
	axes    []int // indexes into rb.axes, ascending
	space   *region.Space
	regions []region.Block // projected onto the group's axes
	regIdx  map[int]int    // relation region index -> group region index
	atoms   []region.SigAtom
	sys     *lp.AtomSystem
	res     *lp.SolveResult
	layout  []int

	// needSeen holds the atom bitsets already added as inhabitation rows.
	needSeen map[string]struct{}
	// satMemo maps (group axis, interval set) to the bitset of atoms whose
	// representative lies in the set; see matchingAtoms.
	satMemo map[string][]uint64
	// Scratch of matchingAtoms: the map key, the result and one entry's
	// satisfied set.
	keyBuf       []byte
	match, entry []uint64
}

// segment is one piece of the overlay of all group layouts: a contiguous
// primary-key range whose tuples share one atom per group.
type segment struct {
	count  int64
	atomOf []int // per group
}

// relBuild carries one relation through the three passes.
type relBuild struct {
	t     *schema.Table
	s     *schema.Schema
	total int64
	rr    *RelationReport

	axes        []axisInfo
	axisPos     map[string]int
	fullRegions []region.Block // over all axes
	footprints  [][]int        // per region: the axes it constrains
	groups      []*conGroup
	axisGroup   []int // axis -> group index
	axisInGroup []int // axis -> position within its group's axes
	segments    []segment
	// The alignment index materialize records, per segment: its
	// representative cell (one interval per axis) and primary-key range.
	// Referencing relations materialize foreign keys from it (fkSpec).
	cells [][]value.Interval
	pks   []value.IntervalSet

	// fkAtRisk's scratch: the per-region axis split and the entries.
	fkAxes, others []int
	risk           []atRisk
}

// prepareRelation resolves the constraint space, decomposes it into
// independent groups, and builds each group's partition and LP system.
func prepareRelation(t *schema.Table, s *schema.Schema, w *preprocess.Workload, opts BuildOptions) (*relBuild, error) {
	rb := &relBuild{
		t:     t,
		s:     s,
		total: t.RowCount,
		rr:    &RelationReport{Table: t.Name, Residuals: make(map[string]int64)},
	}

	// Deterministic spec order.
	var keys []string
	for k := range w.Regions[t.Name] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	specs := make([]*preprocess.RegionSpec, len(keys))
	for i, k := range keys {
		specs[i] = w.Regions[t.Name][k]
	}
	rb.rr.Regions = len(specs)
	rb.rr.Constraints = len(w.Constraints[t.Name])

	axes, err := collectAxes(t, s, specs)
	if err != nil {
		return nil, err
	}
	rb.axes = axes
	rb.axisPos = make(map[string]int, len(axes))
	fullSpace := &region.Space{Table: t.Name}
	for i, a := range axes {
		fullSpace.Cols = append(fullSpace.Cols, i)
		fullSpace.Domains = append(fullSpace.Domains, a.Domain)
		rb.axisPos[a.Key] = i
	}

	rb.fullRegions = make([]region.Block, len(specs))
	for i, sp := range specs {
		ru, err := resolveSpec(t, s, sp, fullSpace, rb.axisPos)
		if err != nil {
			return nil, err
		}
		rb.fullRegions[i] = ru
	}
	regionIdx := make(map[string]int, len(keys))
	for i, k := range keys {
		regionIdx[k] = i
	}
	rb.rr.GridVars = region.Grid(fullSpace, rb.fullRegions).VarCount

	// Union-find over axes: every region's footprint (the axes it
	// actually constrains) merges into one group.
	parent := make([]int, len(axes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	footprints := make([][]int, len(rb.fullRegions))
	for ri, reg := range rb.fullRegions {
		var fp []int
		for a := range axes {
			if !reg[a].Equal(value.NewIntervalSet(axes[a].Domain)) {
				fp = append(fp, a)
			}
		}
		footprints[ri] = fp
		for i := 1; i < len(fp); i++ {
			union(fp[0], fp[i])
		}
	}
	rb.footprints = footprints
	// Relations that other relations reference are kept in a SINGLE
	// group: their tuples must co-locate attribute combinations for
	// foreign-key materialization, which independent group layouts cannot
	// guarantee. Referenced relations are dimensions — small constraint
	// spaces — so the joint partition stays cheap; the grouped
	// decomposition is what tames the wide fact tables.
	if isReferenced(t, s) {
		for a := 1; a < len(axes); a++ {
			union(0, a)
		}
	}
	// Groups in order of their smallest axis.
	groupOf := make(map[int]int)
	rb.axisGroup = make([]int, len(axes))
	rb.axisInGroup = make([]int, len(axes))
	for a := range axes {
		root := find(a)
		gi, ok := groupOf[root]
		if !ok {
			gi = len(rb.groups)
			groupOf[root] = gi
			rb.groups = append(rb.groups, &conGroup{regIdx: make(map[int]int)})
		}
		g := rb.groups[gi]
		rb.axisGroup[a] = gi
		rb.axisInGroup[a] = len(g.axes)
		g.axes = append(g.axes, a)
	}
	if len(rb.groups) == 0 {
		// No axes at all: a single trivial group so the machinery below
		// stays uniform.
		rb.groups = append(rb.groups, &conGroup{regIdx: make(map[int]int)})
	}
	rb.rr.Groups = len(rb.groups)

	// Per-group spaces and projected regions.
	for _, g := range rb.groups {
		g.space = &region.Space{Table: t.Name}
		for i, a := range g.axes {
			g.space.Cols = append(g.space.Cols, i)
			g.space.Domains = append(g.space.Domains, axes[a].Domain)
		}
	}
	regionGroup := make([]int, len(rb.fullRegions)) // -1 = unconstrained region
	for ri, fp := range footprints {
		if len(fp) == 0 {
			regionGroup[ri] = -1
			continue
		}
		gi := rb.axisGroup[fp[0]]
		regionGroup[ri] = gi
		g := rb.groups[gi]
		proj := make(region.Block, len(g.axes))
		for i, a := range g.axes {
			proj[i] = rb.fullRegions[ri][a]
		}
		g.regIdx[ri] = len(g.regions)
		g.regions = append(g.regions, proj)
	}

	tPart := time.Now()
	for _, g := range rb.groups {
		g.atoms = region.SignaturePartition(g.space, g.regions)
		rb.rr.LPVars += len(g.atoms)
		g.sys = &lp.AtomSystem{NumAtoms: len(g.atoms), Total: rb.total}
	}
	rb.rr.PartitionTime = time.Since(tPart)

	// Per group region, its atoms in ascending order: one inverted pass
	// over the atoms' member lists.
	regionAtoms := make([][][]int, len(rb.groups))
	for gi, g := range rb.groups {
		regionAtoms[gi] = invertMembers(g.atoms, len(g.regions))
	}

	// Constraint rows. A constraint over an unconstrained region pins the
	// total of group 0.
	var all []int
	for _, c := range w.Constraints[t.Name] {
		ri, ok := regionIdx[c.Spec.Key()]
		if !ok {
			return nil, fmt.Errorf("internal: constraint region %q not registered", c.Label)
		}
		gi := regionGroup[ri]
		if gi < 0 {
			g := rb.groups[0]
			if all == nil {
				all = make([]int, len(g.atoms))
				for i := range all {
					all[i] = i
				}
			}
			g.sys.Cons = append(g.sys.Cons, lp.AtomConstraint{Atoms: all, Card: c.Card, Label: c.Label})
			continue
		}
		g := rb.groups[gi]
		members := regionAtoms[gi][g.regIdx[ri]]
		g.sys.Cons = append(g.sys.Cons, lp.AtomConstraint{Atoms: members, Card: c.Card, Label: c.Label})
	}

	// Preference: keep downstream-referenced regions' atoms populated.
	prefer := make([][]bool, len(rb.groups))
	for key := range w.Referenced[t.Name] {
		ri, ok := regionIdx[key]
		if !ok || regionGroup[ri] < 0 {
			continue
		}
		gi := regionGroup[ri]
		g := rb.groups[gi]
		if prefer[gi] == nil {
			prefer[gi] = make([]bool, len(g.atoms))
		}
		for _, ai := range regionAtoms[gi][g.regIdx[ri]] {
			prefer[gi][ai] = true
		}
	}
	for gi, in := range prefer {
		for ai, p := range in {
			if p {
				rb.groups[gi].sys.Prefer = append(rb.groups[gi].sys.Prefer, ai)
			}
		}
	}
	return rb, nil
}

// invertMembers returns, per region of [0, regions), the ascending indexes
// of the atoms lying inside it, all carved from one arena.
func invertMembers(atoms []region.SigAtom, regions int) [][]int {
	start := make([]int, regions+1)
	for ai := range atoms {
		for _, ri := range atoms[ai].Members {
			start[ri+1]++
		}
	}
	for ri := 0; ri < regions; ri++ {
		start[ri+1] += start[ri]
	}
	arena := make([]int, start[regions])
	fill := slices.Clone(start[:regions])
	for ai := range atoms {
		for _, ri := range atoms[ai].Members {
			arena[fill[ri]] = ai
			fill[ri]++
		}
	}
	out := make([][]int, regions)
	for ri := range out {
		if lo, hi := start[ri], start[ri+1]; hi > lo {
			out[ri] = arena[lo:hi:hi]
		}
	}
	return out
}

// solve runs every group's LP, forces group totals to agree, lays out each
// group, and overlays the layouts into segments.
func (rb *relBuild) solve(opts BuildOptions) error {
	tSolve := time.Now()
	for _, g := range rb.groups {
		if len(g.atoms) == 0 {
			// Zero-axis trivial group: one implicit atom holding all rows.
			g.atoms = []region.SigAtom{{}}
			g.res = &lp.SolveResult{Counts: []int64{rb.total}}
			g.layout = []int{0}
			continue
		}
		res, err := lp.SolveAtoms(g.sys)
		if err != nil {
			return err
		}
		g.res = res
		forceTotal(res.Counts, rb.total)
		g.layout = layoutOrder(g.atoms, len(g.regions), res.Counts)
		rb.rr.Pivots += res.Pivots
		rb.rr.LPObj += res.LPObj
		for i, r := range res.Residuals {
			if r != 0 {
				rb.rr.Residuals[res.Labels[i]] += r
				abs := r
				if abs < 0 {
					abs = -abs
				}
				if abs > rb.rr.MaxAbsResidual {
					rb.rr.MaxAbsResidual = abs
				}
				rb.rr.SumAbsResidual += abs
			}
		}
	}
	rb.rr.SolveTime = time.Since(tSolve)
	rb.buildSegments()
	return nil
}

// forceTotal nudges integer counts so they sum exactly to total (group
// layouts must agree on the primary-key range). The adjustment lands on the
// largest atoms; any constraint deviation it causes is already reflected in
// the reported residuals of subsequent relations only through verification,
// so keep the nudge minimal.
func forceTotal(counts []int64, total int64) {
	var sum int64
	for _, c := range counts {
		sum += c
	}
	diff := total - sum
	for diff != 0 {
		// Find the largest atom (for removals) / first atom (for adds).
		best := 0
		for i, c := range counts {
			if c > counts[best] {
				best = i
			}
		}
		if diff > 0 {
			counts[best] += diff
			return
		}
		take := -diff
		if take > counts[best] {
			take = counts[best]
		}
		if take == 0 {
			return // nothing left to remove
		}
		counts[best] -= take
		diff += take
	}
}

// buildSegments overlays the group layouts: each group independently covers
// [0, total) with its atoms in layout order; the overlay's pieces are the
// summary segments. Segment count is bounded by the total number of
// populated atoms across groups (each boundary starts a new segment), which
// for basic LP solutions is on the order of the constraint count — the
// paper's "minuscule summary".
func (rb *relBuild) buildSegments() {
	type cursor struct {
		g    *conGroup
		pos  int   // index into layout
		upto int64 // cumulative end of current atom
	}
	cursors := make([]cursor, len(rb.groups))
	for gi, g := range rb.groups {
		c := cursor{g: g}
		for c.pos < len(g.layout) && g.res.Counts[g.layout[c.pos]] == 0 {
			c.pos++
		}
		if c.pos < len(g.layout) {
			c.upto = g.res.Counts[g.layout[c.pos]]
		}
		cursors[gi] = c
	}
	rb.segments = rb.segments[:0]
	var off int64
	for off < rb.total {
		// Next boundary across groups.
		next := rb.total
		for gi := range cursors {
			c := &cursors[gi]
			if c.pos < len(c.g.layout) && c.upto < next && c.upto > off {
				next = c.upto
			}
		}
		seg := segment{count: next - off, atomOf: make([]int, len(rb.groups))}
		for gi := range cursors {
			c := &cursors[gi]
			if c.pos < len(c.g.layout) {
				seg.atomOf[gi] = c.g.layout[c.pos]
			}
		}
		rb.segments = append(rb.segments, seg)
		off = next
		for gi := range cursors {
			c := &cursors[gi]
			for c.pos < len(c.g.layout) && c.upto <= off {
				c.pos++
				if c.pos < len(c.g.layout) {
					c.upto += c.g.res.Counts[c.g.layout[c.pos]]
				}
			}
		}
	}
}

// axisRep returns the representative interval of one axis within a segment.
func (rb *relBuild) axisRep(seg *segment, axis int) value.Interval {
	g := rb.groups[rb.axisGroup[axis]]
	atom := &g.atoms[seg.atomOf[rb.axisGroup[axis]]]
	if len(atom.Rep) == 0 {
		return rb.axes[axis].Domain // trivial group
	}
	return atom.Rep[rb.axisInGroup[axis]]
}

// atRisk is one region whose membership a foreign key must reproduce
// exactly: the segment satisfies every conjunct of the region outside this
// foreign key, so the referenced tuple's attributes alone decide whether a
// generated row falls inside — and they must decide it the way the LP
// accounted the segment (need).
type atRisk struct {
	need bool
	// refAxes/sets: the region's condition over the referenced relation's
	// axes (parallel slices).
	refAxes []int
	sets    []value.IntervalSet
}

// fkAtRisk computes the at-risk regions of one segment for the foreign key
// with the given axis-key prefix into the referenced relation ref. The
// result is scratch, valid until the next call.
func (rb *relBuild) fkAtRisk(seg *segment, prefix string, ref *relBuild) []atRisk {
	rep := func(a int) int64 { return rb.axisRep(seg, a).Lo }
	out := rb.risk[:0]
	for ri, reg := range rb.fullRegions {
		fkAxes, others := rb.fkAxes[:0], rb.others[:0]
		for _, a := range rb.footprints[ri] {
			key := rb.axes[a].Key
			if len(key) > len(prefix) && key[:len(prefix)] == prefix {
				fkAxes = append(fkAxes, a)
			} else {
				others = append(others, a)
			}
		}
		rb.fkAxes, rb.others = fkAxes, others
		if len(fkAxes) == 0 {
			continue
		}
		otherOK := true
		for _, a := range others {
			if !reg[a].Contains(rep(a)) {
				otherOK = false
				break
			}
		}
		if !otherOK {
			continue // some other conjunct already fails: not at risk
		}
		// Reuse the next slot's slices; an entry left without axes is
		// dropped again.
		out = slices.Grow(out, 1)[:len(out)+1]
		e := &out[len(out)-1]
		e.need, e.refAxes, e.sets = true, e.refAxes[:0], e.sets[:0]
		for _, a := range fkAxes {
			ra, ok := ref.axisPos[rb.axes[a].Key[len(prefix):]]
			if !ok {
				continue
			}
			if !reg[a].Contains(rep(a)) {
				e.need = false
			}
			e.refAxes = append(e.refAxes, ra)
			e.sets = append(e.sets, reg[a])
		}
		if len(e.refAxes) == 0 {
			out = out[:len(out)-1]
		}
	}
	rb.risk = out
	return out
}

// propagateNeeds adds, for every populated segment and every foreign key,
// soft GE rows to the referenced relation's group: at least one dimension
// tuple must realize the membership pattern the segment's foreign keys
// require.
func (rb *relBuild) propagateNeeds(builds map[string]*relBuild) error {
	start := time.Now()
	for ci, col := range rb.t.Columns {
		if col.Ref == nil {
			continue
		}
		ref := builds[col.Ref.Table]
		if ref == nil {
			return fmt.Errorf("internal: referenced relation %s not prepared", col.Ref.Table)
		}
		if len(ref.groups) != 1 { // prepareRelation unions a referenced relation's axes
			return fmt.Errorf("internal: referenced relation %s has %d constraint groups, want 1", ref.t.Name, len(ref.groups))
		}
		rg := ref.groups[0]
		prefix := rb.t.Columns[ci].Name + "."
		label := fmt.Sprintf("inhabit(%s.%s)", rb.t.Name, col.Name)
		for si := range rb.segments {
			entries := rb.fkAtRisk(&rb.segments[si], prefix, ref)
			if len(entries) == 0 {
				continue
			}
			match := ref.matchingAtoms(0, entries)
			n := 0
			for _, w := range match {
				n += bits.OnesCount64(w)
			}
			if n == 0 {
				continue // unrealizable pattern; clamp reports later
			}
			rg.keyBuf = appendWords(rg.keyBuf[:0], match)
			if _, ok := rg.needSeen[string(rg.keyBuf)]; ok {
				continue
			}
			if rg.needSeen == nil {
				rg.needSeen = make(map[string]struct{})
			}
			rg.needSeen[string(rg.keyBuf)] = struct{}{}
			members := make([]int, 0, n)
			for w, word := range match {
				for ; word != 0; word &= word - 1 {
					members = append(members, w*64+bits.TrailingZeros64(word))
				}
			}
			rg.sys.Cons = append(rg.sys.Cons, lp.AtomConstraint{
				Atoms: members,
				Card:  1,
				Kind:  lp.GE,
				Label: label,
			})
		}
	}
	rb.rr.NeedsTime = time.Since(start)
	return nil
}

// matchingAtoms returns the bitset of group rgi's atoms that realize every
// at-risk pattern entry: an atom's representative satisfies the entry's
// condition exactly when the entry needs it satisfied. With S_e the atoms
// satisfying entry e — the AND over e's axes in the group of the memoized
// per-(axis, set) bitsets — the result is ∧_e (need ? S_e : ¬S_e). Entry
// axes outside the group are treated as satisfied (they are covered by
// their own group's row), and atoms with an empty representative satisfy
// no in-group axis. The result is scratch, valid until the next call.
func (rb *relBuild) matchingAtoms(rgi int, entries []atRisk) []uint64 {
	g := rb.groups[rgi]
	n := len(g.atoms)
	words := (n + 63) / 64
	g.match = ones(g.match, n)
	for _, e := range entries {
		g.entry = ones(g.entry, n)
		for i, ra := range e.refAxes {
			if rb.axisGroup[ra] != rgi {
				continue
			}
			sat := g.satisfying(rb.axisInGroup[ra], e.sets[i])
			for w := 0; w < words; w++ {
				g.entry[w] &= sat[w]
			}
		}
		if e.need {
			for w := 0; w < words; w++ {
				g.match[w] &= g.entry[w]
			}
		} else {
			for w := 0; w < words; w++ {
				g.match[w] &^= g.entry[w]
			}
		}
	}
	return g.match
}

// satisfying returns the bitset of the group's atoms whose representative
// on group axis ga lies in set, memoized per (ga, set).
func (g *conGroup) satisfying(ga int, set value.IntervalSet) []uint64 {
	g.keyBuf = binary.LittleEndian.AppendUint64(g.keyBuf[:0], uint64(ga))
	for _, iv := range set {
		g.keyBuf = binary.LittleEndian.AppendUint64(g.keyBuf, uint64(iv.Lo))
		g.keyBuf = binary.LittleEndian.AppendUint64(g.keyBuf, uint64(iv.Hi))
	}
	if sat, ok := g.satMemo[string(g.keyBuf)]; ok {
		return sat
	}
	sat := make([]uint64, (len(g.atoms)+63)/64)
	for ai := range g.atoms {
		if rep := g.atoms[ai].Rep; len(rep) > 0 && set.Contains(rep[ga].Lo) {
			sat[ai/64] |= 1 << (ai % 64)
		}
	}
	if g.satMemo == nil {
		g.satMemo = make(map[string][]uint64)
	}
	g.satMemo[string(g.keyBuf)] = sat
	return sat
}

// ones resizes buf to the bitset of n set bits.
func ones(buf []uint64, n int) []uint64 {
	buf = slices.Grow(buf[:0], (n+63)/64)[:(n+63)/64]
	for w := range buf {
		buf[w] = ^uint64(0)
	}
	if n%64 != 0 {
		buf[len(buf)-1] = 1<<(n%64) - 1
	}
	return buf
}

// appendWords appends the little-endian bytes of ws to buf.
func appendWords(buf []byte, ws []uint64) []byte {
	for _, w := range ws {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// materialize performs deterministic alignment, recording the alignment
// index, and expands segments into summary rows, resolving foreign keys
// against the indexes of already-materialized referenced relations.
func (rb *relBuild) materialize(builds map[string]*relBuild) *Relation {
	tAlign := time.Now()
	rel := &Relation{Table: rb.t.Name, Total: rb.total}
	var off int64
	for si := range rb.segments {
		seg := &rb.segments[si]
		block := make([]value.Interval, len(rb.axes))
		for a := range rb.axes {
			block[a] = rb.axisRep(seg, a)
		}
		rb.cells = append(rb.cells, block)
		rb.pks = append(rb.pks, value.NewIntervalSet(value.Ival(off, off+seg.count)))
		rel.Rows = append(rel.Rows, Row{Count: seg.count, Specs: rb.rowSpecs(seg, block, builds)})
		off += seg.count
	}
	rb.rr.AlignTime = time.Since(tAlign)
	rb.rr.SummaryRows = len(rel.Rows)
	return rel
}

// isReferenced reports whether any table's foreign key targets t.
func isReferenced(t *schema.Table, s *schema.Schema) bool {
	for _, other := range s.Tables {
		for _, c := range other.Columns {
			if c.Ref != nil && c.Ref.Table == t.Name {
				return true
			}
		}
	}
	return false
}

// collectAxes walks every spec's own columns and foreign-key terms,
// producing the sorted denormalized axis list.
func collectAxes(t *schema.Table, s *schema.Schema, specs []*preprocess.RegionSpec) ([]axisInfo, error) {
	seen := map[string]axisInfo{}
	var walk func(tab *schema.Table, sp *preprocess.RegionSpec, prefix string) error
	walk = func(tab *schema.Table, sp *preprocess.RegionSpec, prefix string) error {
		pk := tab.PKIndex()
		for _, c := range sp.Own.Cols {
			if c == pk {
				return fmt.Errorf("predicates on surrogate primary key %s.%s are unsupported", tab.Name, tab.Columns[c].Name)
			}
			key := prefix + tab.Columns[c].Name
			if _, ok := seen[key]; !ok {
				seen[key] = axisInfo{Key: key, OwnCol: ownColOf(prefix, c), Domain: tab.Columns[c].Domain()}
			}
		}
		for _, term := range sp.Terms {
			ref := s.Table(term.RefTable)
			if ref == nil {
				return fmt.Errorf("internal: missing table %s", term.RefTable)
			}
			if err := walk(ref, term.Ref, prefix+tab.Columns[term.FKCol].Name+"."); err != nil {
				return err
			}
		}
		return nil
	}
	for _, sp := range specs {
		if err := walk(t, sp, ""); err != nil {
			return nil, err
		}
	}
	var out []axisInfo
	for _, a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// ownColOf returns the table column index for a root-level axis, -1 for
// virtual (foreign) axes.
func ownColOf(prefix string, col int) int {
	if prefix == "" {
		return col
	}
	return -1
}

// resolveSpec flattens a spec tree into a product region over the
// denormalized axes: own-attribute sets at their own keys, and every nested
// dimension predicate at its "fkcol."-prefixed key.
func resolveSpec(t *schema.Table, s *schema.Schema, sp *preprocess.RegionSpec, space *region.Space, axisPos map[string]int) (region.Block, error) {
	b := make(region.Block, space.Dims())
	for i, d := range space.Domains {
		b[i] = value.NewIntervalSet(d)
	}
	var walk func(tab *schema.Table, sp *preprocess.RegionSpec, prefix string) error
	walk = func(tab *schema.Table, sp *preprocess.RegionSpec, prefix string) error {
		for i, c := range sp.Own.Cols {
			key := prefix + tab.Columns[c].Name
			pos, ok := axisPos[key]
			if !ok {
				return fmt.Errorf("internal: axis %s not collected", key)
			}
			b[pos] = b[pos].Intersect(sp.Own.Sets[i])
		}
		for _, term := range sp.Terms {
			ref := s.Table(term.RefTable)
			if err := walk(ref, term.Ref, prefix+tab.Columns[term.FKCol].Name+"."); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t, sp, ""); err != nil {
		return nil, err
	}
	return b, nil
}

// rowSpecs builds the per-column value specs of one summary row from the
// segment's representative cell. Attribute axes get their representative
// value (the paper's fixed summary values); foreign keys are materialized
// from the referenced relation's alignment index: the keys of exactly those
// dimension segments that realize the membership pattern this segment's
// at-risk regions require, so re-executing any workload predicate lands the
// row in precisely the regions the LP accounted it to.
//
// Referential post-processing: when no dimension segment realizes the
// pattern (the dimension LPs could not co-locate the needed attribute
// combination) the foreign key falls back to the keys matching the largest
// number of at-risk regions and the affected tuples are charged to the
// report's ClampedRows — the paper's "minor additive errors".
func (rb *relBuild) rowSpecs(seg *segment, block []value.Interval, builds map[string]*relBuild) []ColSpec {
	t := rb.t
	pk := t.PKIndex()
	var specs []ColSpec
	for ci, col := range t.Columns {
		if ci == pk {
			continue
		}
		if col.Ref != nil {
			specs = append(specs, rb.fkSpec(seg, ci, builds[col.Ref.Table]))
			continue
		}
		pos := -1
		if p, ok := rb.axisPos[col.Name]; ok {
			pos = p
		}
		var set value.IntervalSet
		if pos >= 0 {
			set = value.NewIntervalSet(block[pos])
		} else {
			set = value.NewIntervalSet(col.Domain())
		}
		if set.Empty() {
			specs = append(specs, FixedSpec(ci, col.DomainLo))
			continue
		}
		if pos >= 0 {
			// Constrained attribute: fixed representative value, as in
			// the paper's summary display.
			specs = append(specs, FixedSpec(ci, set[0].Lo))
			continue
		}
		// Unconstrained attribute: a cycling set over its whole range
		// (realistic value diversity), fixed only when it has one value.
		if set.Len() > 1 {
			specs = append(specs, SetSpec(ci, set))
		} else {
			specs = append(specs, FixedSpec(ci, set[0].Lo))
		}
	}
	return specs
}

// fkSpec materializes foreign-key column ci of a summary row from the
// alignment index of ref, the materialized relation it references.
func (rb *relBuild) fkSpec(seg *segment, ci int, ref *relBuild) ColSpec {
	if ref == rb || ref.total <= 0 {
		// Referenced relation empty, or the relation itself (its index is
		// not complete yet): unavoidable referential violation.
		rb.rr.ClampedRows += seg.count
		return FixedSpec(ci, 0)
	}
	prefix := rb.t.Columns[ci].Name + "."
	entries := rb.fkAtRisk(seg, prefix, ref)
	if len(entries) == 0 {
		return SetSpec(ci, value.NewIntervalSet(value.Ival(0, ref.total)))
	}
	var pkset value.IntervalSet
	bestScore := -1
	var bestSet value.IntervalSet
	for si, pk := range ref.pks {
		score := 0
		for _, e := range entries {
			sat := true
			for i, ra := range e.refAxes {
				if !e.sets[i].Contains(ref.cells[si][ra].Lo) {
					sat = false
					break
				}
			}
			if sat == e.need {
				score++
			}
		}
		if score == len(entries) {
			pkset = pkset.Union(pk)
		}
		if score > bestScore {
			bestScore = score
			bestSet = pk.Clone()
		} else if score == bestScore {
			bestSet = bestSet.Union(pk)
		}
	}
	if pkset.Empty() {
		rb.rr.ClampedRows += seg.count
		pkset = bestSet
		if pkset.Empty() {
			pkset = value.NewIntervalSet(value.Ival(0, ref.total))
		}
	}
	return SetSpec(ci, pkset)
}
