package engine

import (
	"fmt"
	"slices"

	"repro/internal/pred"
	"repro/internal/schema"
	"repro/internal/sqlkit"
)

// OpKind identifies a plan operator.
type OpKind uint8

// Plan operator kinds.
const (
	OpScan OpKind = iota
	OpFilter
	OpHashJoin
	OpAggregate // COUNT(*)
	OpGroupAgg  // GROUP BY keys + COUNT/SUM/MIN/MAX/AVG aggregates
	OpDistinct  // SELECT DISTINCT: dedup over the selected columns
	OpSort      // ORDER BY keys (ascending/descending, full-row tiebreak)
	OpLimit     // LIMIT n [OFFSET k]
	// OpSummaryAgg never appears in Plan.Root: it is the summary-direct
	// aggregate candidate the planner attaches as Plan.SummaryAgg when the
	// query's shape allows answering it from summary rows alone. Execution
	// takes it only when the per-summary-row proof succeeds (summaryagg.go).
	OpSummaryAgg
)

// String names the operator as it appears in AQPs.
func (k OpKind) String() string {
	switch k {
	case OpScan:
		return "SCAN"
	case OpFilter:
		return "FILTER"
	case OpHashJoin:
		return "HASH JOIN"
	case OpAggregate:
		return "AGGREGATE"
	case OpGroupAgg:
		return "GROUP AGG"
	case OpDistinct:
		return "DISTINCT"
	case OpSort:
		return "SORT"
	case OpLimit:
		return "LIMIT"
	case OpSummaryAgg:
		return "SUMMARY AGG"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// AggSpec is one aggregate computed by an OpGroupAgg node: the function and
// its input column's position in the child output. COUNT consumes no input
// column (Col is -1): with Hydra's coded rows there are no NULLs, so
// COUNT(col) and COUNT(*) both count group rows.
type AggSpec struct {
	Fn  sqlkit.AggFunc
	Col int
}

// GroupOut maps one OpGroupAgg output column, in select-list order, to its
// source: exactly one of Key (an index into the node's GroupBy) and Agg (an
// index into its Aggs) is >= 0.
type GroupOut struct {
	Key int
	Agg int
}

// SortKey is one ORDER BY key of an OpSort node: the column's position in
// the node's output and the direction. Ties across all sort keys are broken
// by the remaining output columns ascending, so sorted output is a total
// order up to full-row equality — the property that makes ORDER BY results
// byte-identical across the sequential and morsel-parallel executors (SQL
// leaves tie order unspecified; Hydra pins it).
type SortKey struct {
	Col  int
	Desc bool
}

// ColRef locates an output column: which table it came from and the column's
// index within that table.
type ColRef struct {
	Table string
	Col   int
}

// PlanNode is one operator in a physical plan tree.
type PlanNode struct {
	Op    OpKind
	Table string       // OpScan
	Pred  *pred.Region // OpFilter: compiled predicate
	// OpHashJoin: positions (in the respective child's output row) of the
	// equi-join columns. Left is the probe (pipelined) side, Right the
	// build side.
	LeftKey, RightKey int
	JoinSQL           string // display form, e.g. "r.s_fk = s.s_pk"

	// OpGroupAgg: GroupBy lists the grouping-key positions in the child's
	// output (GROUP BY clause order — the deterministic output sort order);
	// Aggs the aggregate specs; Items maps each output column, in
	// select-list order, to a grouping key or an aggregate. OpDistinct
	// reuses the same three fields with no Aggs: its keys are the selected
	// columns and its output is one row per distinct key tuple — which is
	// why both operators share one execution state (groupAggState).
	GroupBy []int
	Aggs    []AggSpec
	Items   []GroupOut

	// OpSort: the ORDER BY keys in clause order. SortBound, when > 0, is
	// offset+limit of a LIMIT node directly above the sort: the sort may
	// retain only the SortBound smallest rows (top-K) since the limit
	// discards everything beyond them.
	SortKeys  []SortKey
	SortBound int64

	// OpLimit: emit at most Limit rows after skipping Offset (both >= 0).
	Limit, Offset int64

	Children []*PlanNode
	Cols     []ColRef // output column layout
}

// Plan is a compiled physical plan for one query.
type Plan struct {
	Query *sqlkit.Query
	Root  *PlanNode

	// SummaryAgg, when non-nil, is the summary-direct aggregate candidate:
	// an OpSummaryAgg node describing the same computation as Root for a
	// shape (single table, aggregate/distinct root, conjunctive interval
	// predicate, no ORDER BY / LIMIT) that may be answerable from the
	// table's summary without generating rows. It is a side-channel, not
	// part of the Root tree: executors consult it first and silently fall
	// back to Root when the table has no registered summary or the
	// per-summary-row exactness proof fails (see summaryagg.go).
	SummaryAgg *PlanNode
}

// BuildPlan compiles a parsed query into the canonical plan Hydra uses at
// both client and vendor sites: each table is scanned and filtered, then
// tables are joined left-deep in FROM-clause order (each joined table must
// connect to the already-joined set through an equi-join predicate, the
// star/snowflake pattern). COUNT(*) queries get a final aggregate. Because
// the construction is deterministic, client and vendor always agree on the
// plan — the role CODD's metadata transfer plays in the paper.
func BuildPlan(s *schema.Schema, q *sqlkit.Query) (*Plan, error) {
	if len(q.Tables) == 0 {
		return nil, fmt.Errorf("engine: query has no tables")
	}
	tables := make(map[string]*schema.Table, len(q.Tables))
	for _, name := range q.Tables {
		t := s.Table(name)
		if t == nil {
			return nil, fmt.Errorf("engine: unknown table %s", name)
		}
		if tables[name] != nil {
			return nil, fmt.Errorf("engine: table %s listed twice (self-joins unsupported)", name)
		}
		tables[name] = t
	}

	// Leaf for each table: scan + (optional) filter.
	leaves := make(map[string]*PlanNode, len(q.Tables))
	for name, t := range tables {
		node := &PlanNode{Op: OpScan, Table: name, Cols: tableCols(t)}
		region, err := pred.Compile(t, q.FilterPreds())
		if err != nil {
			return nil, err
		}
		if !region.Unconstrained() {
			node = &PlanNode{Op: OpFilter, Pred: region, Children: []*PlanNode{node}, Cols: node.Cols}
		}
		leaves[name] = node
	}

	// Validate every filter predicate resolved to exactly one table.
	if err := checkPredsResolve(tables, q); err != nil {
		return nil, err
	}

	joins := q.JoinPreds()
	cur := leaves[q.Tables[0]]
	joined := map[string]bool{q.Tables[0]: true}
	remaining := append([]string(nil), q.Tables[1:]...)
	used := make([]bool, len(joins))

	for len(remaining) > 0 {
		progress := false
		for ri := 0; ri < len(remaining); ri++ {
			name := remaining[ri]
			jp, ji, leftKey, rightKey, err := findJoin(joins, used, cur.Cols, leaves[name].Cols, tables, joined, name)
			if err != nil {
				return nil, err
			}
			if jp == nil {
				continue
			}
			used[ji] = true
			build := leaves[name]
			node := &PlanNode{
				Op:       OpHashJoin,
				LeftKey:  leftKey,
				RightKey: rightKey,
				JoinSQL:  jp.SQL(),
				Children: []*PlanNode{cur, build},
				Cols:     append(append([]ColRef(nil), cur.Cols...), build.Cols...),
			}
			cur = node
			joined[name] = true
			remaining = append(remaining[:ri], remaining[ri+1:]...)
			progress = true
			break
		}
		if !progress {
			return nil, fmt.Errorf("engine: tables %v are not connected by join predicates", remaining)
		}
	}

	// Any join predicate not consumed means a non-tree join graph.
	for i, jp := range joins {
		if !used[i] {
			return nil, fmt.Errorf("engine: unused join predicate %s (cyclic join graph unsupported)", jp.SQL())
		}
	}

	switch {
	case q.CountStar:
		cur = &PlanNode{Op: OpAggregate, Children: []*PlanNode{cur}, Cols: nil}
	case q.Grouped():
		gn, err := buildGroupAgg(tables, q, cur)
		if err != nil {
			return nil, err
		}
		cur = gn
	case q.Distinct:
		dn, err := buildDistinct(tables, q, cur)
		if err != nil {
			return nil, err
		}
		cur = dn
	}

	// Root sinks, innermost-out: DISTINCT (above), then ORDER BY, then
	// LIMIT. Each is one operator implementation shared by every executor.
	if len(q.OrderBy) > 0 {
		sn := &PlanNode{Op: OpSort, Children: []*PlanNode{cur}, Cols: cur.Cols}
		for _, o := range q.OrderBy {
			tbl, col, err := resolveColumnRef(tables, o.Col)
			if err != nil {
				return nil, err
			}
			pos := findCol(cur.Cols, tbl, col)
			if pos < 0 {
				return nil, fmt.Errorf("engine: ORDER BY column %s is not in the query output", o.Col)
			}
			sn.SortKeys = append(sn.SortKeys, SortKey{Col: pos, Desc: o.Desc})
		}
		cur = sn
	}
	if q.Limit != nil {
		ln := &PlanNode{Op: OpLimit, Limit: *q.Limit, Offset: q.Offset, Children: []*PlanNode{cur}, Cols: cur.Cols}
		if sn := ln.Children[0]; sn.Op == OpSort {
			// The limit bounds the sort directly: only the offset+limit
			// smallest rows can ever be emitted, so the sort may run top-K.
			if bound := ln.Offset + ln.Limit; bound > 0 && bound >= ln.Offset {
				sn.SortBound = bound
			}
		}
		cur = ln
	}
	return &Plan{Query: q, Root: cur, SummaryAgg: summaryAggCandidate(q, cur)}, nil
}

// summaryAggCandidate recognizes plans whose answer may be computable from
// summary rows alone and describes the computation as a detached
// OpSummaryAgg node. The shape requirements are structural only — exactness
// is proved per summary row at execution time:
//
//   - exactly one table, scanned (optionally filtered) directly: the
//     summary models base tables, not join results;
//   - an aggregate or distinct root (COUNT(*) / GROUP BY / DISTINCT):
//     plain row-returning selects need the rows themselves;
//   - no ORDER BY or LIMIT above the root: those sinks reorder or truncate
//     grouped output in ways the direct evaluation does not reproduce.
//
// Because the child is a single-table scan, the candidate's GroupBy, Aggs,
// and Pred column indices are all table column indices.
func summaryAggCandidate(q *sqlkit.Query, root *PlanNode) *PlanNode {
	if len(q.Tables) != 1 || len(q.OrderBy) > 0 || q.Limit != nil {
		return nil
	}
	switch root.Op {
	case OpAggregate, OpGroupAgg, OpDistinct:
	default:
		return nil
	}
	child := root.Children[0]
	var region *pred.Region
	if child.Op == OpFilter {
		region = child.Pred
		child = child.Children[0]
	}
	if child.Op != OpScan {
		return nil
	}
	return &PlanNode{
		Op:      OpSummaryAgg,
		Table:   child.Table,
		Pred:    region,
		GroupBy: root.GroupBy,
		Aggs:    root.Aggs,
		Items:   root.Items,
		Cols:    root.Cols,
	}
}

// buildDistinct compiles SELECT DISTINCT onto the join tree: the selected
// columns (every column for SELECT DISTINCT *) become the dedup key, and the
// node's output is exactly those columns in select-list order — one row per
// distinct key tuple, sorted ascending by the tuple so the result is
// deterministic on every execution path. Execution reuses the grouped
// aggregation state with no aggregates: DISTINCT is GROUP BY over the
// select list, emitting only the keys.
func buildDistinct(tables map[string]*schema.Table, q *sqlkit.Query, child *PlanNode) (*PlanNode, error) {
	node := &PlanNode{Op: OpDistinct, Children: []*PlanNode{child}}
	addKey := func(pos int) {
		node.Items = append(node.Items, GroupOut{Key: len(node.GroupBy), Agg: -1})
		node.GroupBy = append(node.GroupBy, pos)
		node.Cols = append(node.Cols, child.Cols[pos])
	}
	if q.Star {
		for pos := range child.Cols {
			addKey(pos)
		}
		return node, nil
	}
	for _, ref := range q.Columns {
		tbl, col, err := resolveColumnRef(tables, ref)
		if err != nil {
			return nil, err
		}
		pos := findCol(child.Cols, tbl, col)
		if pos < 0 {
			return nil, fmt.Errorf("engine: internal: column %s not in join output", ref)
		}
		addKey(pos)
	}
	return node, nil
}

// buildGroupAgg compiles the grouped select list onto the join tree:
// GROUP BY keys and aggregate inputs are resolved to child-output
// positions, and every non-aggregate select item is checked to be a
// grouping key (the classic GROUP BY validity rule).
func buildGroupAgg(tables map[string]*schema.Table, q *sqlkit.Query, child *PlanNode) (*PlanNode, error) {
	resolve := func(ref sqlkit.ColumnRef) (int, error) {
		tbl, col, err := resolveColumnRef(tables, ref)
		if err != nil {
			return 0, err
		}
		pos := findCol(child.Cols, tbl, col)
		if pos < 0 {
			return 0, fmt.Errorf("engine: internal: column %s not in join output", ref)
		}
		return pos, nil
	}
	node := &PlanNode{Op: OpGroupAgg, Children: []*PlanNode{child}}
	for _, ref := range q.GroupBy {
		pos, err := resolve(ref)
		if err != nil {
			return nil, err
		}
		node.GroupBy = append(node.GroupBy, pos)
	}
	for _, it := range q.Items {
		if !it.IsAgg {
			pos, err := resolve(it.Col)
			if err != nil {
				return nil, err
			}
			ki := -1
			for i, kp := range node.GroupBy {
				if kp == pos {
					ki = i
					break
				}
			}
			if ki < 0 {
				return nil, fmt.Errorf("engine: column %s must appear in GROUP BY", it.Col)
			}
			node.Items = append(node.Items, GroupOut{Key: ki, Agg: -1})
			node.Cols = append(node.Cols, child.Cols[pos])
			continue
		}
		spec := AggSpec{Fn: it.Agg.Fn, Col: -1}
		if !it.Agg.Star {
			pos, err := resolve(it.Agg.Col)
			if err != nil {
				return nil, err
			}
			if it.Agg.Fn != sqlkit.AggCount {
				spec.Col = pos
			}
		}
		node.Items = append(node.Items, GroupOut{Key: -1, Agg: len(node.Aggs)})
		node.Aggs = append(node.Aggs, spec)
		// Aggregate outputs are computed columns; no source ColRef.
		node.Cols = append(node.Cols, ColRef{Col: -1})
	}
	return node, nil
}

// Required-column analysis — the planning half of projection pushdown.
// Column needs flow top-down: each operator translates the set of output
// columns its parent requires into per-child requirements, adding the
// columns it reads itself (filter predicate columns, join keys). A scan's
// resulting need is the projection the columnar executor pushes into the
// generator; everything outside it is never materialized. A nil need means
// "no columns" — the COUNT(*) spine, where only cardinalities flow.

// addCol inserts column c into the ascending set, returning the set.
func addCol(set []int, c int) []int {
	for i, v := range set {
		if v == c {
			return set
		}
		if v > c {
			set = append(set, 0)
			copy(set[i+1:], set[i:])
			set[i] = c
			return set
		}
	}
	return append(set, c)
}

// childNeeds translates the output columns pn's parent requires (need,
// ascending) into the per-child column requirements, in child order.
func (pn *PlanNode) childNeeds(need []int) [][]int {
	switch pn.Op {
	case OpFilter:
		// The filter's output layout is its child's; it additionally reads
		// the predicate columns.
		child := append([]int(nil), need...)
		for _, c := range pn.Pred.Cols {
			child = addCol(child, c)
		}
		return [][]int{child}
	case OpHashJoin:
		// Output is probe columns then build columns; each side needs its
		// slice of the output plus its join key.
		pw := len(pn.Children[0].Cols)
		var probe, build []int
		for _, c := range need {
			if c < pw {
				probe = addCol(probe, c)
			} else {
				build = addCol(build, c-pw)
			}
		}
		probe = addCol(probe, pn.LeftKey)
		build = addCol(build, pn.RightKey)
		return [][]int{probe, build}
	case OpAggregate:
		// COUNT(*) consumes cardinality only — no child columns at all.
		return [][]int{nil}
	case OpGroupAgg, OpDistinct:
		// The node's output columns are computed, so the parent's need is
		// irrelevant: the child must materialize exactly the grouping (or
		// distinct) keys and aggregate inputs.
		var child []int
		for _, c := range pn.GroupBy {
			child = addCol(child, c)
		}
		for _, a := range pn.Aggs {
			if a.Col >= 0 {
				child = addCol(child, a.Col)
			}
		}
		return [][]int{child}
	case OpSort:
		// The sort's output layout is its child's; it additionally reads its
		// key columns. What the child materializes here is also the sort's
		// collected-column set — the tiebreak domain of its total order —
		// unless the sort runs late, which narrows it (lateNeeds).
		child := append([]int(nil), need...)
		for _, k := range pn.SortKeys {
			child = addCol(child, k.Col)
		}
		return [][]int{child}
	case OpLimit:
		// Pure truncation: output layout and needs pass through.
		return [][]int{append([]int(nil), need...)}
	default:
		return nil
	}
}

// lateNeeds narrows a bounded sort's collected set — childNeeds' — for a
// late top-K over a table whose primary key is column pk (lateSort,
// exec_col.go): the child materializes the sort keys and the collected
// columns up to pk, nothing else. The comparator orders by the keys, then
// by the collected columns ascending, and no two rows share a primary key,
// so every pair is decided by pk at the latest: this narrower domain gives
// the very same total order. The columns it drops are the late ones, read
// from the summary for the rows emitted.
func (pn *PlanNode) lateNeeds(collect []int, pk int) (child, late []int) {
	for _, c := range collect {
		if c <= pk {
			child = append(child, c)
		}
	}
	for _, k := range pn.SortKeys {
		child = addCol(child, k.Col)
	}
	for _, c := range collect {
		if !slices.Contains(child, c) {
			late = append(late, c)
		}
	}
	return child, late
}

// topK is the bound of the plan's root when the root is a bounded sort
// under a LIMIT — it emits at most that many rows — and 0 otherwise. A
// plain LIMIT has no such bound on what passes through it: it drains its
// child through the root batch.
func (p *Plan) topK() int64 {
	if r := p.Root; r.Op == OpLimit && r.Children[0].Op == OpSort {
		return r.Children[0].SortBound
	}
	return 0
}

// countStar reports whether the plan computes COUNT(*): an OpAggregate at
// the root, possibly under a LIMIT. The executors use it to route the count
// value out of output column 0.
func (p *Plan) countStar() bool {
	pn := p.Root
	for pn.Op == OpLimit || pn.Op == OpSort {
		pn = pn.Children[0]
	}
	return pn.Op == OpAggregate
}

// countPlanNodes sizes a plan subtree — the span-arena capacity a traced
// execution of it needs, since ExecNodes (and so spans) mirror plan nodes
// one-to-one.
func countPlanNodes(pn *PlanNode) int {
	n := 1
	for _, c := range pn.Children {
		n += countPlanNodes(c)
	}
	return n
}

// RequiredScanCols reports, per scanned table, the columns the plan must
// materialize from that scan: predicate and join-key columns always, plus —
// when withOutput is set, the sampling case — every column that reaches the
// plan's output. This is the observable form of the executor's projection
// pushdown, except under a late top-K, whose scan the executor narrows
// further at open (lateSort needs the registrations; EXPLAIN ANALYZE shows
// that scan's columns).
func (p *Plan) RequiredScanCols(withOutput bool) map[string][]int {
	out := make(map[string][]int)
	var walk func(pn *PlanNode, need []int)
	walk = func(pn *PlanNode, need []int) {
		if pn.Op == OpScan {
			out[pn.Table] = need
			return
		}
		cn := pn.childNeeds(need)
		for i, c := range pn.Children {
			walk(c, cn[i])
		}
	}
	var need []int
	if withOutput && !p.countStar() {
		// Computed outputs (GROUP AGG, DISTINCT) translate the request into
		// their key and aggregate inputs via childNeeds, so listing every
		// root column is exact for any root operator.
		for i := range p.Root.Cols {
			need = append(need, i)
		}
	}
	walk(p.Root, need)
	return out
}

func tableCols(t *schema.Table) []ColRef {
	cols := make([]ColRef, len(t.Columns))
	for i := range t.Columns {
		cols[i] = ColRef{Table: t.Name, Col: i}
	}
	return cols
}

// findJoin looks for an unused join predicate connecting the joined set to
// candidate table name and resolves key positions.
func findJoin(joins []*sqlkit.JoinPred, used []bool, leftCols, rightCols []ColRef, tables map[string]*schema.Table, joined map[string]bool, name string) (*sqlkit.JoinPred, int, int, int, error) {
	for i, jp := range joins {
		if used[i] {
			continue
		}
		lt, lc, err := resolveColumnRef(tables, jp.Left)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		rt, rc, err := resolveColumnRef(tables, jp.Right)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		var joinedSide, newSide string
		var joinedCol, newCol int
		switch {
		case joined[lt] && rt == name:
			joinedSide, joinedCol, newSide, newCol = lt, lc, rt, rc
		case joined[rt] && lt == name:
			joinedSide, joinedCol, newSide, newCol = rt, rc, lt, lc
		default:
			continue
		}
		leftKey := findCol(leftCols, joinedSide, joinedCol)
		rightKey := findCol(rightCols, newSide, newCol)
		if leftKey < 0 || rightKey < 0 {
			return nil, 0, 0, 0, fmt.Errorf("engine: internal: join key not found for %s", jp.SQL())
		}
		return jp, i, leftKey, rightKey, nil
	}
	return nil, 0, 0, 0, nil
}

// resolveColumnRef binds a (possibly unqualified) column reference to its
// FROM table and column index; join keys, GROUP BY keys, and aggregate
// arguments all resolve through it.
func resolveColumnRef(tables map[string]*schema.Table, ref sqlkit.ColumnRef) (table string, col int, err error) {
	if ref.Table != "" {
		t := tables[ref.Table]
		if t == nil {
			return "", 0, fmt.Errorf("engine: column %s references table %s not in FROM", ref, ref.Table)
		}
		c := t.ColumnIndex(ref.Column)
		if c < 0 {
			return "", 0, fmt.Errorf("engine: table %s has no column %s", ref.Table, ref.Column)
		}
		return ref.Table, c, nil
	}
	// Unqualified: exactly one FROM table must have the column.
	found := ""
	col = -1
	for name, t := range tables {
		if c := t.ColumnIndex(ref.Column); c >= 0 {
			if found != "" {
				return "", 0, fmt.Errorf("engine: ambiguous column %s", ref.Column)
			}
			found, col = name, c
		}
	}
	if found == "" {
		return "", 0, fmt.Errorf("engine: unknown column %s", ref.Column)
	}
	return found, col, nil
}

func findCol(cols []ColRef, table string, col int) int {
	for i, c := range cols {
		if c.Table == table && c.Col == col {
			return i
		}
	}
	return -1
}

// checkPredsResolve verifies every filter predicate binds to exactly one
// FROM table.
func checkPredsResolve(tables map[string]*schema.Table, q *sqlkit.Query) error {
	for _, p := range q.FilterPreds() {
		ref := predColumn(p)
		if ref.Table != "" {
			t := tables[ref.Table]
			if t == nil {
				return fmt.Errorf("engine: predicate references table %s not in FROM", ref.Table)
			}
			if t.ColumnIndex(ref.Column) < 0 {
				return fmt.Errorf("engine: table %s has no column %s", ref.Table, ref.Column)
			}
			continue
		}
		n := 0
		for _, t := range tables {
			if t.ColumnIndex(ref.Column) >= 0 {
				n++
			}
		}
		switch n {
		case 0:
			return fmt.Errorf("engine: unknown column %s in predicate", ref.Column)
		case 1:
		default:
			return fmt.Errorf("engine: ambiguous column %s in predicate", ref.Column)
		}
	}
	return nil
}

func predColumn(p sqlkit.Predicate) sqlkit.ColumnRef {
	switch p := p.(type) {
	case *sqlkit.ComparePred:
		return p.Col
	case *sqlkit.BetweenPred:
		return p.Col
	case *sqlkit.InPred:
		return p.Col
	default:
		return sqlkit.ColumnRef{}
	}
}
