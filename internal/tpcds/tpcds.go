// Package tpcds provides the evaluation substrate standing in for the
// paper's TPC-DS warehouse: a star schema centered on a store_sales fact
// with item, customer, date_dim, store, and promotion dimensions, a seeded
// synthetic data generator with skewed and uniform columns, and a
// deterministic generator for large SPJ query workloads (the paper
// evaluates on 131 distinct TPC-DS queries).
//
// Substitution note (see DESIGN.md): the licensed dsdgen tool and official
// query set are unavailable; what the experiments need is the *shape* — a
// realistic star schema, skewed value distributions, and a wide workload of
// selections over dimension attributes combined with foreign-key joins —
// which this package reproduces from scratch.
package tpcds

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/stats"
)

// Base table cardinalities at scale factor 1.
const (
	BaseDateDim   = 1_000
	BaseStore     = 20
	BasePromotion = 60
	BaseItem      = 2_000
	BaseCustomer  = 5_000
	BaseSales     = 50_000
)

var (
	categories  = []string{"Books", "Children", "Electronics", "Home", "Jewelry", "Men", "Music", "Shoes", "Sports", "Women"}
	genders     = []string{"F", "M"}
	salutations = []string{"Dr.", "Miss", "Mr.", "Mrs.", "Ms.", "Sir"}
	channels    = []string{"N", "Y"}
	states      = []string{"AL", "CA", "FL", "GA", "IL", "MI", "NY", "OH", "PA", "TX"}
)

func seqDict(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s_%03d", prefix, i)
	}
	return out
}

func scale(base int64, sf float64) int64 {
	n := int64(float64(base) * sf)
	if n < 1 {
		n = 1
	}
	return n
}

// Schema builds the warehouse schema at the given scale factor. Row counts
// and key domains scale linearly; the date dimension stays fixed like a
// real calendar.
func Schema(sf float64) *schema.Schema {
	nDate := int64(BaseDateDim)
	nStore := scale(BaseStore, sf)
	nPromo := scale(BasePromotion, sf)
	nItem := scale(BaseItem, sf)
	nCust := scale(BaseCustomer, sf)
	nSales := scale(BaseSales, sf)

	intCol := func(name string, lo, hi int64) *schema.Column {
		return &schema.Column{Name: name, Type: schema.Int, DomainLo: lo, DomainHi: hi}
	}
	pkCol := func(name string, n int64) *schema.Column {
		return &schema.Column{Name: name, Type: schema.Int, PrimaryKey: true, DomainLo: 0, DomainHi: n}
	}
	fkCol := func(name, table, column string, n int64) *schema.Column {
		return &schema.Column{Name: name, Type: schema.Int, Ref: &schema.ForeignKey{Table: table, Column: column}, DomainLo: 0, DomainHi: n}
	}
	strCol := func(name string, dict []string) *schema.Column {
		return &schema.Column{Name: name, Type: schema.String, Dict: dict, DomainLo: 0, DomainHi: int64(len(dict))}
	}
	moneyCol := func(name string, hiCents int64) *schema.Column {
		return &schema.Column{Name: name, Type: schema.Float, Scale: 100, DomainLo: 0, DomainHi: hiCents}
	}

	return &schema.Schema{Tables: []*schema.Table{
		{
			Name:     "date_dim",
			RowCount: nDate,
			Columns: []*schema.Column{
				pkCol("d_date_sk", nDate),
				intCol("d_year", 1998, 2004),
				intCol("d_moy", 1, 13),
				intCol("d_dom", 1, 29),
				intCol("d_qoy", 1, 5),
			},
		},
		{
			Name:     "store",
			RowCount: nStore,
			Columns: []*schema.Column{
				pkCol("s_store_sk", nStore),
				strCol("s_state", states),
				intCol("s_floor_space", 1_000, 10_000),
				intCol("s_number_employees", 10, 300),
			},
		},
		{
			Name:     "promotion",
			RowCount: nPromo,
			Columns: []*schema.Column{
				pkCol("p_promo_sk", nPromo),
				strCol("p_channel_email", channels),
				intCol("p_response_target", 0, 10),
			},
		},
		{
			Name:     "item",
			RowCount: nItem,
			Columns: []*schema.Column{
				pkCol("i_item_sk", nItem),
				intCol("i_manager_id", 0, 100),
				strCol("i_class", seqDict("class", 30)),
				strCol("i_category", categories),
				strCol("i_brand", seqDict("brand", 50)),
				moneyCol("i_current_price", 1_000_000), // up to $10,000.00
			},
		},
		{
			Name:     "customer",
			RowCount: nCust,
			Columns: []*schema.Column{
				pkCol("c_customer_sk", nCust),
				intCol("c_birth_year", 1920, 2005),
				strCol("c_gender", genders),
				strCol("c_state", states),
				strCol("c_salutation", salutations),
			},
		},
		{
			Name:     "store_sales",
			RowCount: nSales,
			Columns: []*schema.Column{
				pkCol("ss_sk", nSales),
				fkCol("ss_sold_date_sk", "date_dim", "d_date_sk", nDate),
				fkCol("ss_item_sk", "item", "i_item_sk", nItem),
				fkCol("ss_customer_sk", "customer", "c_customer_sk", nCust),
				fkCol("ss_store_sk", "store", "s_store_sk", nStore),
				fkCol("ss_promo_sk", "promotion", "p_promo_sk", nPromo),
				intCol("ss_quantity", 1, 100),
				moneyCol("ss_sales_price", 2_000_000),
				moneyCol("ss_wholesale_cost", 1_000_000),
			},
		},
	}}
}

// GenerateDatabase populates a client database for the schema with seeded
// synthetic data: skewed (Zipf) item popularity, normal price distributions,
// uniform calendar references.
func GenerateDatabase(s *schema.Schema, seed int64) (*engine.Database, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	db := engine.NewDatabase(s)
	r := rand.New(rand.NewSource(seed))
	for _, t := range s.Tables {
		dists, err := tableDists(s, t, r)
		if err != nil {
			return nil, err
		}
		rel := &engine.Relation{Table: t}
		row := make([]int64, len(t.Columns))
		for i := int64(0); i < t.RowCount; i++ {
			for ci := range t.Columns {
				row[ci] = dists[ci].Draw(r)
			}
			if err := rel.Append(row); err != nil {
				return nil, err
			}
		}
		if err := db.AddRelation(rel); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// tableDists chooses a distribution per column: sequential keys, Zipf for
// popularity-skewed attributes and the item/promotion foreign keys, normal
// for prices, uniform elsewhere.
func tableDists(s *schema.Schema, t *schema.Table, r *rand.Rand) ([]stats.Dist, error) {
	dists := make([]stats.Dist, len(t.Columns))
	for ci, c := range t.Columns {
		switch {
		case c.PrimaryKey:
			dists[ci] = stats.NewSequentialDist(0)
		case c.Ref != nil:
			ref := s.Table(c.Ref.Table)
			if ref == nil {
				return nil, fmt.Errorf("tpcds: missing reference %s", c.Ref.Table)
			}
			if c.Ref.Table == "item" || c.Ref.Table == "promotion" {
				dists[ci] = stats.ZipfDist{Lo: 0, Hi: ref.RowCount, S: 1.3, V: 2}
			} else {
				dists[ci] = stats.UniformDist{Lo: 0, Hi: ref.RowCount}
			}
		case c.Type == schema.Float:
			mid := float64(c.DomainLo+c.DomainHi) / 2
			dists[ci] = stats.NormalDist{Lo: c.DomainLo, Hi: c.DomainHi, Mean: mid / 2, Sigma: mid / 3}
		case c.Type == schema.String && (c.Name == "i_category" || c.Name == "i_class" || c.Name == "i_brand"):
			dists[ci] = stats.ZipfDist{Lo: c.DomainLo, Hi: c.DomainHi, S: 1.2, V: 1}
		default:
			dists[ci] = stats.UniformDist{Lo: c.DomainLo, Hi: c.DomainHi}
		}
	}
	return dists, nil
}
