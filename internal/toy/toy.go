// Package toy builds the three-table example of Figure 1 in the paper:
//
//	R (R_pk, S_fk, T_fk)    S (S_pk, A, B)    T (T_pk, C)
//
// with the sample query
//
//	SELECT * FROM R, S, T
//	WHERE R.S_fk = S.S_pk AND R.T_fk = T.T_pk
//	  AND S.A >= 20 AND S.A < 60 AND T.C >= 2 AND T.C < 3
//
// It is used by the quickstart example and by integration tests that need a
// small, fully understood scenario.
package toy

import (
	"math/rand"

	"repro/internal/engine"
	"repro/internal/schema"
)

// Sizes of the toy relations.
const (
	RRows = 10_000
	SRows = 500
	TRows = 100
)

// Query is the paper's Figure 1(b) example query.
const Query = "SELECT * FROM r, s, t WHERE r.s_fk = s.s_pk AND r.t_fk = t.t_pk AND s.a >= 20 AND s.a < 60 AND t.c >= 2 AND t.c < 3"

// Schema returns the Figure 1(a) schema.
func Schema() *schema.Schema {
	return &schema.Schema{Tables: []*schema.Table{
		{
			Name:     "s",
			RowCount: SRows,
			Columns: []*schema.Column{
				{Name: "s_pk", Type: schema.Int, PrimaryKey: true, DomainLo: 0, DomainHi: SRows},
				{Name: "a", Type: schema.Int, DomainLo: 0, DomainHi: 100},
				{Name: "b", Type: schema.Int, DomainLo: 0, DomainHi: 1000},
			},
		},
		{
			Name:     "t",
			RowCount: TRows,
			Columns: []*schema.Column{
				{Name: "t_pk", Type: schema.Int, PrimaryKey: true, DomainLo: 0, DomainHi: TRows},
				{Name: "c", Type: schema.Int, DomainLo: 0, DomainHi: 10},
			},
		},
		{
			Name:     "r",
			RowCount: RRows,
			Columns: []*schema.Column{
				{Name: "r_pk", Type: schema.Int, PrimaryKey: true, DomainLo: 0, DomainHi: RRows},
				{Name: "s_fk", Type: schema.Int, Ref: &schema.ForeignKey{Table: "s", Column: "s_pk"}, DomainLo: 0, DomainHi: SRows},
				{Name: "t_fk", Type: schema.Int, Ref: &schema.ForeignKey{Table: "t", Column: "t_pk"}, DomainLo: 0, DomainHi: TRows},
			},
		},
	}}
}

// Database generates a seeded toy client database.
func Database(seed int64) (*engine.Database, error) {
	s := Schema()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	db := engine.NewDatabase(s)

	sRel := &engine.Relation{Table: s.Table("s")}
	for i := int64(0); i < SRows; i++ {
		if err := sRel.Append([]int64{i, r.Int63n(100), r.Int63n(1000)}); err != nil {
			return nil, err
		}
	}
	tRel := &engine.Relation{Table: s.Table("t")}
	for i := int64(0); i < TRows; i++ {
		if err := tRel.Append([]int64{i, r.Int63n(10)}); err != nil {
			return nil, err
		}
	}
	rRel := &engine.Relation{Table: s.Table("r")}
	for i := int64(0); i < RRows; i++ {
		if err := rRel.Append([]int64{i, r.Int63n(SRows), r.Int63n(TRows)}); err != nil {
			return nil, err
		}
	}
	for _, rel := range []*engine.Relation{sRel, tRel, rRel} {
		if err := db.AddRelation(rel); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// Workload returns a small workload exercising filters and both joins.
func Workload() []string {
	return []string{
		Query,
		"SELECT COUNT(*) FROM s WHERE a >= 20 AND a < 60",
		"SELECT COUNT(*) FROM t WHERE c >= 2 AND c < 3",
		"SELECT COUNT(*) FROM r, s WHERE r.s_fk = s.s_pk AND s.a < 50",
		"SELECT COUNT(*) FROM r, t WHERE r.t_fk = t.t_pk AND t.c IN (1, 3, 5)",
		"SELECT COUNT(*) FROM s WHERE b BETWEEN 100 AND 499",
	}
}

// GroupWorkload returns grouped-aggregate queries over the toy schema for
// the GROUP BY parity and serve suites. They are executed against summaries
// built from Workload (grouped queries regenerate from the same summary;
// they are not part of the captured AQP workload).
func GroupWorkload() []string {
	return []string{
		"SELECT t.c, COUNT(*) FROM t GROUP BY t.c",
		"SELECT s.a, COUNT(*), SUM(s.b), MIN(s.b), MAX(s.b), AVG(s.b) FROM s WHERE s.a < 40 GROUP BY s.a",
		"SELECT t.c, COUNT(*), SUM(s.b), MIN(s.a), MAX(s.a), AVG(s.b) FROM r, s, t WHERE r.s_fk = s.s_pk AND r.t_fk = t.t_pk GROUP BY t.c",
		"SELECT AVG(s.b), t.c FROM r, s, t WHERE r.s_fk = s.s_pk AND r.t_fk = t.t_pk AND s.a >= 20 GROUP BY t.c",
		"SELECT COUNT(*), SUM(s.b), AVG(s.b) FROM s",
		"SELECT s.a, s.b, COUNT(*) FROM s WHERE s.a < 5 GROUP BY s.a, s.b",
	}
}

// SortWorkload returns ORDER BY / LIMIT / DISTINCT queries over the toy
// schema for the sink-operator parity and serve suites: full sorts, top-K
// (LIMIT bounding ORDER BY), limits landing mid-batch, OFFSET past the end,
// LIMIT 0, DISTINCT over one and several columns, and compositions with
// GROUP BY. Like GroupWorkload, they regenerate from summaries built from
// Workload and are not part of the captured AQP workload.
func SortWorkload() []string {
	return []string{
		"SELECT * FROM s ORDER BY s.b DESC",
		"SELECT * FROM s WHERE s.a < 60 ORDER BY s.a, s.b DESC",
		"SELECT * FROM s ORDER BY s.b DESC LIMIT 7 OFFSET 2",
		"SELECT * FROM r, s WHERE r.s_fk = s.s_pk AND s.a >= 20 ORDER BY s.b DESC LIMIT 10",
		"SELECT * FROM s LIMIT 7",
		"SELECT * FROM s LIMIT 7 OFFSET 496",   // limit lands past a partial tail
		"SELECT * FROM s LIMIT 5 OFFSET 10000", // offset past end
		"SELECT * FROM s LIMIT 0",
		"SELECT COUNT(*) FROM s WHERE s.a >= 20 LIMIT 1",
		"SELECT DISTINCT t.c FROM t",
		"SELECT DISTINCT s.a FROM r, s WHERE r.s_fk = s.s_pk AND s.a < 30",
		"SELECT DISTINCT t.c FROM t ORDER BY t.c DESC LIMIT 3",
		"SELECT t.c, COUNT(*) FROM t GROUP BY t.c ORDER BY t.c DESC LIMIT 4 OFFSET 1",
	}
}
