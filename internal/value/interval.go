package value

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// DomainMin and DomainMax bound every coded column domain. Keeping a wide
// margin below math.MinInt64/MaxInt64 lets interval arithmetic add or
// subtract one without overflow checks at every call site.
const (
	DomainMin int64 = math.MinInt64 / 4
	DomainMax int64 = math.MaxInt64 / 4
)

// Interval is a half-open integer interval [Lo, Hi). An interval with
// Hi <= Lo is empty.
type Interval struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
}

// Ival is shorthand for constructing an Interval.
func Ival(lo, hi int64) Interval { return Interval{Lo: lo, Hi: hi} }

// Point returns the degenerate interval [v, v+1) covering exactly v.
func Point(v int64) Interval { return Interval{Lo: v, Hi: v + 1} }

// Empty reports whether the interval contains no points.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// Len returns the number of integer points in the interval (0 if empty).
func (iv Interval) Len() int64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v int64) bool { return v >= iv.Lo && v < iv.Hi }

// Intersect returns the intersection (possibly empty).
func (iv Interval) Intersect(other Interval) Interval {
	lo, hi := iv.Lo, iv.Hi
	if other.Lo > lo {
		lo = other.Lo
	}
	if other.Hi < hi {
		hi = other.Hi
	}
	return Interval{Lo: lo, Hi: hi}
}

// Subtract returns iv minus other as zero, one, or two disjoint intervals.
func (iv Interval) Subtract(other Interval) []Interval {
	if iv.Empty() {
		return nil
	}
	x := iv.Intersect(other)
	if x.Empty() {
		return []Interval{iv}
	}
	var out []Interval
	if iv.Lo < x.Lo {
		out = append(out, Interval{Lo: iv.Lo, Hi: x.Lo})
	}
	if x.Hi < iv.Hi {
		out = append(out, Interval{Lo: x.Hi, Hi: iv.Hi})
	}
	return out
}

// String renders the interval as [lo,hi).
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Lo, iv.Hi) }

// IntervalSet is a set of integer points represented as intervals. The
// canonical form (produced by Normalize and all set operations) is sorted,
// non-empty, and non-adjacent.
type IntervalSet []Interval

// NewIntervalSet normalizes the given intervals into canonical form.
func NewIntervalSet(ivs ...Interval) IntervalSet {
	return IntervalSet(ivs).Normalize()
}

// Normalize returns the canonical form: sorted by Lo, empties dropped,
// overlapping or adjacent intervals merged. The receiver is not modified.
func (s IntervalSet) Normalize() IntervalSet {
	tmp := make([]Interval, 0, len(s))
	for _, iv := range s {
		if !iv.Empty() {
			tmp = append(tmp, iv)
		}
	}
	if len(tmp) == 0 {
		return nil
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i].Lo < tmp[j].Lo })
	out := tmp[:1]
	for _, iv := range tmp[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi { // overlapping or adjacent
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// Empty reports whether the set contains no points.
func (s IntervalSet) Empty() bool {
	for _, iv := range s {
		if !iv.Empty() {
			return false
		}
	}
	return true
}

// Len returns the total number of integer points in the set.
// The set must be in canonical form for the count to be exact.
func (s IntervalSet) Len() int64 {
	var n int64
	for _, iv := range s {
		n += iv.Len()
	}
	return n
}

// Contains reports whether v lies in the set (binary search; canonical form).
func (s IntervalSet) Contains(v int64) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case v < s[mid].Lo:
			hi = mid
		case v >= s[mid].Hi:
			lo = mid + 1
		default:
			return true
		}
	}
	return false
}

// Union returns the union of two canonical sets, in canonical form.
func (s IntervalSet) Union(other IntervalSet) IntervalSet {
	merged := make(IntervalSet, 0, len(s)+len(other))
	merged = append(merged, s...)
	merged = append(merged, other...)
	return merged.Normalize()
}

// Intersect returns the intersection of two canonical sets.
func (s IntervalSet) Intersect(other IntervalSet) IntervalSet {
	var out IntervalSet
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		x := s[i].Intersect(other[j])
		if !x.Empty() {
			out = append(out, x)
		}
		if s[i].Hi < other[j].Hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// IntersectInto writes the intersection of two canonical sets into dst
// (truncated to length zero first) and returns it — the allocation-free
// form of Intersect for hot paths that own a reusable buffer. dst must not
// alias s or other.
func (s IntervalSet) IntersectInto(dst IntervalSet, other IntervalSet) IntervalSet {
	dst = dst[:0]
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		x := s[i].Intersect(other[j])
		if !x.Empty() {
			dst = append(dst, x)
		}
		if s[i].Hi < other[j].Hi {
			i++
		} else {
			j++
		}
	}
	return dst
}

// IntersectLen returns the number of integer points the two canonical sets
// share — Intersect(other).Len() without materializing the intersection.
// This is the cardinality primitive the summary-direct aggregate path leans
// on; the fuzz suite holds it to a brute-force reference.
func (s IntervalSet) IntersectLen(other IntervalSet) int64 {
	var n int64
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		x := s[i].Intersect(other[j])
		n += x.Len()
		if s[i].Hi < other[j].Hi {
			i++
		} else {
			j++
		}
	}
	return n
}

// PrefixInto writes the first k points (in ascending order) of a canonical
// set into dst (truncated to length zero first) and returns it, in
// canonical form. k <= 0 yields an empty set; k >= Len() yields the whole
// set. dst must not alias s.
func (s IntervalSet) PrefixInto(dst IntervalSet, k int64) IntervalSet {
	dst = dst[:0]
	for _, iv := range s {
		if k <= 0 {
			break
		}
		n := iv.Len()
		if n > k {
			n = k
		}
		dst = append(dst, Interval{Lo: iv.Lo, Hi: iv.Lo + n})
		k -= n
	}
	return dst
}

// Min returns the smallest point of a non-empty canonical set.
func (s IntervalSet) Min() int64 { return s[0].Lo }

// Max returns the largest point of a non-empty canonical set.
func (s IntervalSet) Max() int64 { return s[len(s)-1].Hi - 1 }

// Subtract returns the points of s not in other (both canonical).
func (s IntervalSet) Subtract(other IntervalSet) IntervalSet {
	var out IntervalSet
	for _, iv := range s {
		rest := []Interval{iv}
		for _, o := range other {
			if o.Lo >= iv.Hi {
				break
			}
			var next []Interval
			for _, r := range rest {
				next = append(next, r.Subtract(o)...)
			}
			rest = next
			if len(rest) == 0 {
				break
			}
		}
		out = append(out, rest...)
	}
	return out.Normalize()
}

// ContainsSet reports whether other is a subset of s (both canonical).
func (s IntervalSet) ContainsSet(other IntervalSet) bool {
	return other.Subtract(s).Empty()
}

// Equal reports whether two canonical sets cover the same points.
func (s IntervalSet) Equal(other IntervalSet) bool {
	if len(s) != len(other) {
		return false
	}
	for i := range s {
		if s[i] != other[i] {
			return false
		}
	}
	return true
}

// At returns the rank-th smallest point of a canonical set (0-based).
// It panics when rank is out of range.
func (s IntervalSet) At(rank int64) int64 {
	if rank >= 0 {
		for _, iv := range s {
			if rank < iv.Len() {
				return iv.Lo + rank
			}
			rank -= iv.Len()
		}
	}
	panic(fmt.Sprintf("value: IntervalSet.At(%d) out of range for %s", rank, s))
}

// Clone returns a copy of the set.
func (s IntervalSet) Clone() IntervalSet {
	if s == nil {
		return nil
	}
	out := make(IntervalSet, len(s))
	copy(out, s)
	return out
}

// String renders the set as a comma-separated list of intervals.
func (s IntervalSet) String() string {
	if len(s) == 0 {
		return "{}"
	}
	parts := make([]string, len(s))
	for i, iv := range s {
		parts[i] = iv.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}
