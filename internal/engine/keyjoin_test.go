package engine

// In-place key joins and sized root batches, white-box: which joins run in
// place, that such a join writes into the batch its parent handed down and
// owns none, that its answer is the definitional nested loop's, and that a
// root sink's batch holds exactly the rows it emitted.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/batch"
	"repro/internal/synopsis"
)

// spineJoins lists the joins down its probe spine, outermost first, as
// "key" (in place) or "pair".
func spineJoins(it colIterator) []string {
	var out []string
	for {
		switch s := it.(type) {
		case *colSinkIter:
			it = s.child
		case *colLimitIter:
			it = s.child
		case *colFilterIter:
			it = s.child
		case *colKeyJoinIter:
			out = append(out, "key")
			it = s.probe
		case *colHashJoinIter:
			out = append(out, "pair")
			it = s.probe
		default:
			return out
		}
	}
}

// keyJoinOracleDB is joinOracleDB with unique build keys: 30 distinct keys
// drawn from [0, 40), so a probe key in [-5, 45) matches at most once and
// often not at all. The first twelve probe rows all miss (key 99), so at
// every batch size up to twelve some probe batch holds no match.
func keyJoinOracleDB(t *testing.T) (db *Database, probe, build [][]int64) {
	t.Helper()
	s := joinOracleSchema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for i, key := range rng.Perm(40)[:30] {
		build = append(build, []int64{int64(key), int64(100 + i)})
	}
	for i := 0; i < 300; i++ {
		key := int64(rng.Intn(50) - 5)
		if i < 12 {
			key = 99
		}
		probe = append(probe, []int64{int64(i), key, int64(rng.Intn(10))})
	}
	db = NewDatabase(s)
	db.SetDatagen("bld", func() (batch.ColProjector, error) { return rowsScan(build), nil })
	db.SetDatagen("prb", func() (batch.ColProjector, error) {
		return sectionedRows{rowsScan(probe).(*batch.RowScan), probe}, nil
	})
	return db, probe, build
}

// TestKeyJoinMatchesNestedLoopOracle holds the in-place join over a
// unique-key hash build to the definitional nested loop, as
// TestHashJoinMatchesNestedLoopOracle holds the pair join: every need set,
// at every batch size and parallelism, under a filtered probe whose
// selection the join narrows further.
func TestKeyJoinMatchesNestedLoopOracle(t *testing.T) {
	oversubscribe(t, 4)
	db, probe, build := keyJoinOracleDB(t)
	want := nestedLoopJoin(probe, build, 1, 0, func(p []int64) bool { return p[2] >= 3 })
	const sql = "SELECT * FROM prb, bld WHERE p_key = b_key AND p_val >= 3"
	plan := mustPlan(t, db, sql)
	count := mustPlan(t, db, "SELECT COUNT(*) FROM prb, bld WHERE p_key = b_key AND p_val >= 3")
	it, _, _, _, err := openCol(db, plan.Root, nil, 0, &buildCache{}, &execCtl{})
	if err != nil {
		t.Fatal(err)
	}
	if got := spineJoins(it); !reflect.DeepEqual(got, []string{"key"}) {
		t.Fatalf("joins %v, want one in place", got)
	}
	for _, size := range []int{1, 2, 3, 7, 0} {
		for _, workers := range []int{0, 1, 2, 4} {
			for _, need := range [][]int{{0, 2}, {4}, {0, 1, 2, 3, 4}, nil} {
				label := fmt.Sprintf("need %v [batch=%d workers=%d]", need, size, workers)
				if got := drainJoin(t, db, plan.Root, need, size, workers); !reflect.DeepEqual(got, project(want, need)) {
					t.Fatalf("%s: %d rows\n got %v\nwant %v", label, len(got), got, project(want, need))
				}
			}
			opts := ExecOptions{SampleLimit: len(want) + 1, BatchSize: size, Parallelism: workers}
			res, err := execute(db, plan, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Sample, want) {
				t.Fatalf("%s [batch=%d workers=%d]: %d rows\n got %v\nwant %v", sql, size, workers, len(res.Sample), res.Sample, want)
			}
			if res, err = execute(db, count, opts); err != nil || res.Count != int64(len(want)) {
				t.Fatalf("COUNT(*) [batch=%d workers=%d] = %v (err %v), want %d", size, workers, res, err, len(want))
			}
		}
	}
}

// TestKeyJoinRouting pins which joins run in place: a build on the
// dimension's primary key — stored, datagen, or summary-backed and looked
// up positionally — and not a build whose keys repeat.
func TestKeyJoinRouting(t *testing.T) {
	stored := starDatabase(t)
	datagen := starDatabase(t)
	rows := rowsOf(datagen.Relation("dim"))
	datagen.SetDatagen("dim", func() (batch.ColProjector, error) { return rowsScan(rows), nil })
	summary := starDatabase(t)
	summary.SetSummary("dim", &synopsis.Relation{Table: "dim", Total: 4, Rows: []synopsis.Row{
		{Count: 4, Specs: []synopsis.ColSpec{synopsis.FixedSpec(1, 10)}},
	}})
	for _, c := range []struct {
		name string
		db   *Database
		sql  string
		want []string
	}{
		{"stored", stored, "SELECT COUNT(*) FROM fact, dim WHERE fact.d_fk = dim.d_pk", []string{"key"}},
		{"datagen", datagen, "SELECT COUNT(*) FROM fact, dim WHERE fact.d_fk = dim.d_pk", []string{"key"}},
		{"positional", summary, "SELECT COUNT(*) FROM fact, dim WHERE fact.d_fk = dim.d_pk", []string{"key"}},
		{"repeated keys", stored, "SELECT COUNT(*) FROM dim, fact WHERE dim.d_pk = fact.d_fk", []string{"pair"}},
	} {
		plan := mustPlan(t, c.db, c.sql)
		prep, err := Prepare(c.db, plan, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var st ExecState
		if _, err := prep.ExecuteIn(&st, ExecOptions{}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := spineJoins(st.it); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s: %s joins %v, want %v", c.name, c.sql, got, c.want)
		}
	}
}

// TestKeyJoinProbeRowArity: a datagen probe source yielding a row of the
// wrong length under an in-place join — whose batch is wider than the
// probe table — still stops the scan with ErrRowArity on every front and
// batch size: the source sees its table's width, not the join's.
func TestKeyJoinProbeRowArity(t *testing.T) {
	for _, rows := range [][][]int64{
		{{0, 0, 1}, {1, 0, 2}, {2, 1}, {3, 2, 4}},
		{{0, 0, 1}, {1, 0, 2, 9}, {2, 1, 3}},
	} {
		db := starDatabase(t)
		db.SetDatagen("fact", func() (batch.ColProjector, error) { return rowsScan(rows), nil })
		for _, sql := range []string{
			"SELECT COUNT(*) FROM fact, dim WHERE fact.d_fk = dim.d_pk",
			"SELECT * FROM fact, dim WHERE fact.d_fk = dim.d_pk",
		} {
			plan := mustPlan(t, db, sql)
			it, _, _, _, err := openCol(db, plan.Root, nil, 0, &buildCache{}, &execCtl{})
			if err != nil {
				t.Fatal(err)
			}
			if got := spineJoins(it); !reflect.DeepEqual(got, []string{"key"}) {
				t.Fatalf("%s: joins %v, want one in place", sql, got)
			}
			for _, size := range []int{0, 1, 2} {
				for _, f := range contextFronts(t) {
					res, err := f.run(context.Background(), db, plan, ExecOptions{BatchSize: size, SampleLimit: 10})
					if !errors.Is(err, batch.ErrRowArity) {
						t.Fatalf("%v, %s [%s batch=%d]: result %+v, err %v; want ErrRowArity", rows, sql, f.name, size, res, err)
					}
				}
			}
		}
	}
}

// TestInPlaceBatches pins the two halves of "a batch holds only what flows
// through it". An in-place join opens no batch of its own: the probe scan
// fills the root batch itself, through a view of the probe table's columns.
// A root sink's batch holds only the rows it emitted: unsampled it has no
// column storage at all, sampled each output column holds exactly the
// emitted rows — GROUP BY groups, the COUNT(*) row, a top-K's winners —
// while a sort's drain batch under it, which a GROUP BY emits into, keeps
// its full capacity.
func TestInPlaceBatches(t *testing.T) {
	db := starDatabase(t)
	opts := ExecOptions{SampleLimit: 10}
	prep, err := Prepare(db, mustPlan(t, db, "SELECT * FROM fact, dim WHERE fact.d_fk = dim.d_pk"), opts)
	if err != nil {
		t.Fatal(err)
	}
	var st ExecState
	if _, err := prep.ExecuteIn(&st, opts); err != nil {
		t.Fatal(err)
	}
	kj, ok := st.it.(*colKeyJoinIter)
	if !ok {
		t.Fatalf("root %T, want an in-place join", st.it)
	}
	scan := kj.probe.(*colScanIter)
	for c := 0; c < scan.width; c++ {
		if &scan.view.Col(c)[0] != &st.b.Col(c)[0] {
			t.Fatalf("probe column %d was filled outside the root batch", c)
		}
	}

	for _, c := range []struct {
		sql   string
		rows  int
		count bool // COUNT(*): its one column is written sampled or not
	}{
		{"SELECT d_fk, COUNT(*), SUM(q) FROM fact GROUP BY d_fk", 4, false},
		{"SELECT COUNT(*) FROM fact, dim WHERE fact.d_fk = dim.d_pk", 1, true},
		{"SELECT * FROM fact ORDER BY q DESC LIMIT 2", 2, false},
		{"SELECT d_fk, COUNT(*) FROM fact GROUP BY d_fk ORDER BY d_fk DESC LIMIT 3", 3, false},
	} {
		for _, opts := range []ExecOptions{{}, {SampleLimit: 10}} {
			prep, err := Prepare(db, mustPlan(t, db, c.sql), opts)
			if err != nil {
				t.Fatal(err)
			}
			var st ExecState
			for round := 0; round < 2; round++ {
				res, err := prep.ExecuteIn(&st, opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Rows != int64(c.rows) {
					t.Fatalf("%s: %d rows, want %d", c.sql, res.Rows, c.rows)
				}
				want := 0
				if opts.SampleLimit > 0 || c.count {
					want = c.rows
				}
				for col := 0; col < st.b.Width(); col++ {
					if got := len(st.b.Col(col)); got != want {
						t.Fatalf("%s (sample %d) round %d: root column %d holds %d rows, want %d", c.sql, opts.SampleLimit, round, col, got, want)
					}
				}
			}
			// A sink draining another sink sized its drain batch at open;
			// the inner sink's emit leaves it at capacity.
			for it := st.it; it != nil; it = sinkInput(it) {
				g, ok := it.(*colSinkIter)
				if _, inner := sinkInput(it).(*colSinkIter); !ok || !inner {
					continue
				}
				for col := 0; col < g.buf.Width(); col++ {
					if n := len(g.buf.Col(col)); n != 0 && n != g.buf.Cap() {
						t.Fatalf("%s: drain batch column %d holds %d rows, want its capacity %d", c.sql, col, n, g.buf.Cap())
					}
				}
			}
		}
	}
}

// sinkInput returns the operator a root sink operator drains, nil when it is
// a spine operator.
func sinkInput(it colIterator) colIterator {
	switch s := it.(type) {
	case *colSinkIter:
		return s.child
	case *colLimitIter:
		return s.child
	}
	return nil
}
