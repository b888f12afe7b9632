package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// mapJoinIndex is the join index the flat one replaced, kept as its oracle:
// each key's arena rows appended in drain order.
func mapJoinIndex(key []int64) map[int64][]int32 {
	idx := make(map[int64][]int32)
	for r, k := range key {
		idx[k] = append(idx[k], int32(r))
	}
	return idx
}

// TestJoinIndexMatchesMapOracle drains batch.FromRows build sides of
// (key, row number) pairs through newColJoinBuild at a batch size that
// splits them, then probes every key and its neighbours: each matches(k)
// must be the oracle's slice, in its order, and a miss must be empty.
func TestJoinIndexMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, set := range []struct {
		name string
		key  func(i int) int64
	}{
		{"all equal", func(int) int64 { return 42 }},
		{"duplicates", func(i int) int64 { return int64(i*7919) % 13 }},
		{"negatives", func(i int) int64 { return -int64(i%97) * 3 }},
		{"extremes", func(i int) int64 { return []int64{0, math.MinInt64, math.MaxInt64}[i%3] }},
		{"stride 32", func(i int) int64 { return int64(i%600) << 32 }},
		{"stride 40", func(i int) int64 { return int64(i) << 40 }},
		{"random", func(int) int64 { return []int64{rng.Int63(), -rng.Int63n(50)}[rng.Intn(2)] }},
	} {
		for _, n := range []int{0, 1, 1000} {
			rows := make([][]int64, n)
			keys := make([]int64, n)
			for i := range rows {
				keys[i] = set.key(i)
				rows[i] = []int64{keys[i], int64(i)}
			}
			label := fmt.Sprintf("%s, %d rows", set.name, n)
			build := &colScanIter{src: rowsScan(rows), cols: []int{0, 1}, node: &ExecNode{}, ctl: &execCtl{}}
			jb, err := newColJoinBuild(build, 2, 0, 64, []int{0, 1}, []int{0, 1})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !slices.Equal(jb.arena[0], keys) || len(jb.slots) < 2*n || len(jb.slots)&(len(jb.slots)-1) != 0 {
				t.Fatalf("%s: arena or slot table malformed (%d slots)", label, len(jb.slots))
			}
			oracle := mapJoinIndex(keys)
			for _, k := range append(keys, 1, -1, math.MinInt64+1, math.MaxInt64-1, 5<<32) {
				for _, probe := range []int64{k, k + 1, k - 1} {
					if got, want := jb.matches(probe), oracle[probe]; !slices.Equal(got, want) {
						t.Fatalf("%s: matches(%d) = %v, want %v", label, probe, got, want)
					}
				}
			}
		}
	}
}
