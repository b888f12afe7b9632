// Package pred compiles SQL predicates into per-column integer interval
// regions over a table's coded domains. A compiled Region is a conjunction
// of per-column interval sets: geometrically, a union of axis-aligned boxes.
// The same compilation feeds query execution (row matching), AQP constraint
// extraction, and region partitioning, so all three agree exactly on
// predicate semantics.
package pred

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/schema"
	"repro/internal/sqlkit"
	"repro/internal/value"
)

// Region is a conjunction of column constraints on one table: row r matches
// iff for every i, r[Cols[i]] ∈ Sets[i]. Columns not listed are
// unconstrained. Cols is sorted ascending and has no duplicates.
type Region struct {
	Table string
	Cols  []int
	Sets  []value.IntervalSet
}

// Compile builds a Region for table t from the non-join predicates that
// reference t. Predicates on other tables are ignored; a predicate that
// names t but an unknown column is an error.
func Compile(t *schema.Table, preds []sqlkit.Predicate) (*Region, error) {
	byCol := make(map[int]value.IntervalSet)
	for _, p := range preds {
		col, set, ok, err := compileOne(t, p)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if cur, seen := byCol[col]; seen {
			byCol[col] = cur.Intersect(set)
		} else {
			byCol[col] = set
		}
	}
	r := &Region{Table: t.Name}
	cols := make([]int, 0, len(byCol))
	for c := range byCol {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	for _, c := range cols {
		r.Cols = append(r.Cols, c)
		r.Sets = append(r.Sets, byCol[c])
	}
	return r, nil
}

// compileOne translates a single predicate. ok is false when the predicate
// does not constrain table t.
func compileOne(t *schema.Table, p sqlkit.Predicate) (col int, set value.IntervalSet, ok bool, err error) {
	switch p := p.(type) {
	case *sqlkit.JoinPred:
		return 0, nil, false, nil
	case *sqlkit.ComparePred:
		c, idx, refsT, err := resolve(t, p.Col)
		if err != nil || !refsT {
			return 0, nil, false, err
		}
		set, err := CompareSet(c, p.Op, p.Val)
		if err != nil {
			return 0, nil, false, err
		}
		return idx, set, true, nil
	case *sqlkit.BetweenPred:
		c, idx, refsT, err := resolve(t, p.Col)
		if err != nil || !refsT {
			return 0, nil, false, err
		}
		ge, err := CompareSet(c, sqlkit.OpGE, p.Lo)
		if err != nil {
			return 0, nil, false, err
		}
		le, err := CompareSet(c, sqlkit.OpLE, p.Hi)
		if err != nil {
			return 0, nil, false, err
		}
		return idx, ge.Intersect(le), true, nil
	case *sqlkit.InPred:
		c, idx, refsT, err := resolve(t, p.Col)
		if err != nil || !refsT {
			return 0, nil, false, err
		}
		var set value.IntervalSet
		for _, v := range p.Vals {
			eq, err := CompareSet(c, sqlkit.OpEQ, v)
			if err != nil {
				return 0, nil, false, err
			}
			set = set.Union(eq)
		}
		return idx, set, true, nil
	default:
		return 0, nil, false, fmt.Errorf("pred: unsupported predicate %T", p)
	}
}

// resolve maps a column reference onto table t. refsT is false when the
// reference is qualified with a different table name. An unqualified
// reference resolves to t only if t has that column.
func resolve(t *schema.Table, ref sqlkit.ColumnRef) (c *schema.Column, idx int, refsT bool, err error) {
	if ref.Table != "" && ref.Table != t.Name {
		return nil, 0, false, nil
	}
	idx = t.ColumnIndex(ref.Column)
	if idx < 0 {
		if ref.Table == "" {
			return nil, 0, false, nil // belongs to some other table
		}
		return nil, 0, false, fmt.Errorf("pred: table %s has no column %s", t.Name, ref.Column)
	}
	return t.Columns[idx], idx, true, nil
}

// CompareSet returns the coded interval set selected by "col op val" over
// the column's domain.
func CompareSet(c *schema.Column, op sqlkit.CompareOp, val value.Value) (value.IntervalSet, error) {
	dom := c.Domain()
	switch c.Type {
	case schema.String:
		return compareString(c, op, val, dom)
	default:
		return compareNumeric(c, op, val, dom)
	}
}

func compareNumeric(c *schema.Column, op sqlkit.CompareOp, val value.Value, dom value.Interval) (value.IntervalSet, error) {
	if val.Kind() != value.KindInt && val.Kind() != value.KindFloat {
		return nil, fmt.Errorf("pred: column %s: numeric comparison with %s", c.Name, val.Kind())
	}
	scale := 1.0
	if c.Type == schema.Float && c.Scale > 0 {
		scale = c.Scale
	}
	x := val.AsFloat() * scale
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil, fmt.Errorf("pred: column %s: non-finite constant", c.Name)
	}
	floor := int64(math.Floor(x))
	ceil := int64(math.Ceil(x))
	integral := floor == ceil

	var set value.IntervalSet
	switch op {
	case sqlkit.OpEQ:
		if integral {
			set = value.NewIntervalSet(value.Point(floor))
		}
	case sqlkit.OpNE:
		if integral {
			set = value.NewIntervalSet(value.Point(floor))
		}
		set = value.NewIntervalSet(dom).Subtract(set)
	case sqlkit.OpLT:
		// codes < x  ⇔  codes <= ceil-1 when integral, floor otherwise
		hi := floor
		if integral {
			hi = floor - 1
		}
		set = value.NewIntervalSet(value.Ival(dom.Lo, hi+1))
	case sqlkit.OpLE:
		set = value.NewIntervalSet(value.Ival(dom.Lo, floor+1))
	case sqlkit.OpGT:
		lo := ceil
		if integral {
			lo = ceil + 1
		}
		set = value.NewIntervalSet(value.Ival(lo, dom.Hi))
	case sqlkit.OpGE:
		set = value.NewIntervalSet(value.Ival(ceil, dom.Hi))
	default:
		return nil, fmt.Errorf("pred: unknown operator %v", op)
	}
	return set.Intersect(value.NewIntervalSet(dom)), nil
}

func compareString(c *schema.Column, op sqlkit.CompareOp, val value.Value, dom value.Interval) (value.IntervalSet, error) {
	if val.Kind() != value.KindString {
		return nil, fmt.Errorf("pred: column %s: string comparison with %s", c.Name, val.Kind())
	}
	s := val.Str()
	rank := c.EncodeRank(s) // index of first dict entry >= s
	member := rank < int64(len(c.Dict)) && c.Dict[rank] == s

	var set value.IntervalSet
	switch op {
	case sqlkit.OpEQ:
		if member {
			set = value.NewIntervalSet(value.Point(rank))
		}
	case sqlkit.OpNE:
		if member {
			set = value.NewIntervalSet(value.Point(rank))
		}
		set = value.NewIntervalSet(dom).Subtract(set)
	case sqlkit.OpLT:
		set = value.NewIntervalSet(value.Ival(dom.Lo, rank))
	case sqlkit.OpLE:
		hi := rank
		if member {
			hi++
		}
		set = value.NewIntervalSet(value.Ival(dom.Lo, hi))
	case sqlkit.OpGT:
		lo := rank
		if member {
			lo++
		}
		set = value.NewIntervalSet(value.Ival(lo, dom.Hi))
	case sqlkit.OpGE:
		set = value.NewIntervalSet(value.Ival(rank, dom.Hi))
	default:
		return nil, fmt.Errorf("pred: unknown operator %v", op)
	}
	return set.Intersect(value.NewIntervalSet(dom)), nil
}

// Match reports whether a coded row of the region's table satisfies the
// region. It is the definition MatchVec is tested against, not an
// execution path.
func (r *Region) Match(row []int64) bool {
	for i, col := range r.Cols {
		if !r.Sets[i].Contains(row[col]) {
			return false
		}
	}
	return true
}

// Matcher is a compiled form of a Region for the vectorized filter
// (MatchVec): single-interval column sets (the overwhelmingly common case
// for range predicates) are reduced to two integer compares, and only
// multi-interval sets fall back to the binary search of
// IntervalSet.Contains.
type Matcher struct {
	cols []matcherCol
}

type matcherCol struct {
	col    int
	lo, hi int64             // half-open [lo, hi) when set is nil
	set    value.IntervalSet // non-nil for multi-interval sets
}

// Matcher compiles the region for repeated matching.
func (r *Region) Matcher() *Matcher {
	m := &Matcher{cols: make([]matcherCol, len(r.Cols))}
	for i, c := range r.Cols {
		s := r.Sets[i]
		mc := matcherCol{col: c}
		switch len(s) {
		case 0:
			mc.lo, mc.hi = 0, 0 // empty set matches nothing
		case 1:
			mc.lo, mc.hi = s[0].Lo, s[0].Hi
		default:
			mc.set = s
		}
		m.cols[i] = mc
	}
	return m
}

// MatchVec is the vector-at-a-time form of Region.Match: it appends to dst the
// candidate rows whose column values satisfy every constraint, reading
// column c's vector from cols[c]. Candidates are the entries of sel or,
// when sel is nil, rows 0..n-1. dst must have length 0 and enough capacity
// for every candidate; the filled prefix is returned. Each constrained
// column is applied as one tight pass: the first pass writes survivors to
// dst, later passes refine dst in place (safe even when dst aliases sel —
// the write index never passes the read index).
//
//hydra:hotpath
func (m *Matcher) MatchVec(cols [][]int64, n int, sel []int32, dst []int32) []int32 {
	if len(m.cols) == 0 {
		if sel == nil {
			for i := 0; i < n; i++ {
				dst = append(dst, int32(i))
			}
			return dst
		}
		return append(dst, sel...)
	}
	for ci := range m.cols {
		mc := &m.cols[ci]
		data := cols[mc.col]
		if ci == 0 {
			if sel == nil {
				if mc.set == nil {
					lo, hi := mc.lo, mc.hi
					for i, v := range data[:n] {
						if v >= lo && v < hi {
							dst = append(dst, int32(i))
						}
					}
				} else {
					for i, v := range data[:n] {
						if mc.set.Contains(v) {
							dst = append(dst, int32(i))
						}
					}
				}
			} else {
				if mc.set == nil {
					lo, hi := mc.lo, mc.hi
					for _, r := range sel {
						if v := data[r]; v >= lo && v < hi {
							dst = append(dst, r)
						}
					}
				} else {
					for _, r := range sel {
						if mc.set.Contains(data[r]) {
							dst = append(dst, r)
						}
					}
				}
			}
			continue
		}
		k := 0
		if mc.set == nil {
			lo, hi := mc.lo, mc.hi
			for _, r := range dst {
				if v := data[r]; v >= lo && v < hi {
					dst[k] = r
					k++
				}
			}
		} else {
			for _, r := range dst {
				if mc.set.Contains(data[r]) {
					dst[k] = r
					k++
				}
			}
		}
		dst = dst[:k]
	}
	return dst
}

// Empty reports whether the region selects no rows (some column set empty).
func (r *Region) Empty() bool {
	for _, s := range r.Sets {
		if s.Empty() {
			return true
		}
	}
	return false
}

// Unconstrained reports whether the region has no column constraints.
func (r *Region) Unconstrained() bool { return len(r.Cols) == 0 }

// Key returns a canonical string identifying the region's geometry, used to
// deduplicate identical constraint regions across queries.
func (r *Region) Key() string {
	var sb strings.Builder
	sb.WriteString(r.Table)
	for i, c := range r.Cols {
		fmt.Fprintf(&sb, "|%d:%s", c, r.Sets[i].String())
	}
	return sb.String()
}

// SQL renders the region as an AND of range conditions for display.
func (r *Region) SQL(t *schema.Table) string {
	if len(r.Cols) == 0 {
		return "true"
	}
	var parts []string
	for i, ci := range r.Cols {
		name := t.Columns[ci].Name
		parts = append(parts, fmt.Sprintf("%s ∈ %s", name, r.Sets[i]))
	}
	return strings.Join(parts, " AND ")
}

// Clone returns a deep copy.
func (r *Region) Clone() *Region {
	out := &Region{Table: r.Table, Cols: append([]int(nil), r.Cols...)}
	out.Sets = make([]value.IntervalSet, len(r.Sets))
	for i, s := range r.Sets {
		out.Sets[i] = s.Clone()
	}
	return out
}
