package schema

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/value"
)

func twoTableSchema() *Schema {
	return &Schema{Tables: []*Table{
		{
			Name:     "dim",
			RowCount: 10,
			Columns: []*Column{
				{Name: "d_pk", Type: Int, PrimaryKey: true, DomainLo: 0, DomainHi: 10},
				{Name: "a", Type: Int, DomainLo: 0, DomainHi: 100},
			},
		},
		{
			Name:     "fact",
			RowCount: 100,
			Columns: []*Column{
				{Name: "f_pk", Type: Int, PrimaryKey: true, DomainLo: 0, DomainHi: 100},
				{Name: "d_fk", Type: Int, Ref: &ForeignKey{Table: "dim", Column: "d_pk"}, DomainLo: 0, DomainHi: 10},
			},
		},
	}}
}

func TestValidateOK(t *testing.T) {
	if err := twoTableSchema().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	mutate := func(fn func(*Schema)) *Schema {
		s := twoTableSchema()
		fn(s)
		return s
	}
	cases := []struct {
		name string
		s    *Schema
	}{
		{"empty table name", mutate(func(s *Schema) { s.Tables[0].Name = "" })},
		{"duplicate table", mutate(func(s *Schema) { s.Tables[1].Name = "dim" })},
		{"negative row count", mutate(func(s *Schema) { s.Tables[0].RowCount = -1 })},
		{"empty column name", mutate(func(s *Schema) { s.Tables[0].Columns[1].Name = "" })},
		{"duplicate column", mutate(func(s *Schema) { s.Tables[0].Columns[1].Name = "d_pk" })},
		{"no primary key", mutate(func(s *Schema) { s.Tables[0].Columns[0].PrimaryKey = false })},
		{"two primary keys", mutate(func(s *Schema) { s.Tables[0].Columns[1].PrimaryKey = true })},
		{"string pk", mutate(func(s *Schema) { s.Tables[0].Columns[0].Type = String })},
		{"inverted domain", mutate(func(s *Schema) { s.Tables[0].Columns[1].DomainLo = 200 })},
		{"domain exceeds bounds", mutate(func(s *Schema) { s.Tables[0].Columns[1].DomainHi = value.DomainMax + 1 })},
		{"fk to missing table", mutate(func(s *Schema) { s.Tables[1].Columns[1].Ref.Table = "nope" })},
		{"fk to non-pk", mutate(func(s *Schema) { s.Tables[1].Columns[1].Ref.Column = "a" })},
		{"string fk", mutate(func(s *Schema) { s.Tables[1].Columns[1].Type = String })},
		{"unsorted dict", mutate(func(s *Schema) {
			s.Tables[0].Columns[1].Type = String
			s.Tables[0].Columns[1].Dict = []string{"b", "a"}
		})},
	}
	for _, c := range cases {
		if err := c.s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid schema", c.name)
		}
	}
}

func TestValidateFKCycle(t *testing.T) {
	s := twoTableSchema()
	// dim references fact -> cycle.
	s.Tables[0].Columns = append(s.Tables[0].Columns, &Column{
		Name: "f_fk", Type: Int, Ref: &ForeignKey{Table: "fact", Column: "f_pk"}, DomainLo: 0, DomainHi: 100,
	})
	if err := s.Validate(); err == nil {
		t.Error("Validate accepted a foreign-key cycle")
	}
}

func TestTopoOrder(t *testing.T) {
	s := twoTableSchema()
	order, err := s.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0].Name != "dim" || order[1].Name != "fact" {
		names := []string{}
		for _, tt := range order {
			names = append(names, tt.Name)
		}
		t.Errorf("TopoOrder = %v", names)
	}
}

func TestTopoOrderSnowflake(t *testing.T) {
	s := &Schema{Tables: []*Table{
		{Name: "f", RowCount: 1, Columns: []*Column{
			{Name: "f_pk", Type: Int, PrimaryKey: true, DomainLo: 0, DomainHi: 1},
			{Name: "d1_fk", Type: Int, Ref: &ForeignKey{Table: "d1", Column: "d1_pk"}},
		}},
		{Name: "d1", RowCount: 1, Columns: []*Column{
			{Name: "d1_pk", Type: Int, PrimaryKey: true, DomainLo: 0, DomainHi: 1},
			{Name: "d2_fk", Type: Int, Ref: &ForeignKey{Table: "d2", Column: "d2_pk"}},
		}},
		{Name: "d2", RowCount: 1, Columns: []*Column{
			{Name: "d2_pk", Type: Int, PrimaryKey: true, DomainLo: 0, DomainHi: 1},
		}},
	}}
	order, err := s.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, tt := range order {
		pos[tt.Name] = i
	}
	if !(pos["d2"] < pos["d1"] && pos["d1"] < pos["f"]) {
		t.Errorf("snowflake order wrong: %v", pos)
	}
}

func TestColumnLookups(t *testing.T) {
	tab := twoTableSchema().Tables[1]
	if tab.ColumnIndex("d_fk") != 1 || tab.ColumnIndex("nope") != -1 {
		t.Error("ColumnIndex misbehaves")
	}
	if tab.Column("d_fk") == nil || tab.Column("nope") != nil {
		t.Error("Column misbehaves")
	}
	if tab.PKIndex() != 0 {
		t.Error("PKIndex misbehaves")
	}
}

func TestEncodeDecodeInt(t *testing.T) {
	c := &Column{Name: "x", Type: Int, DomainLo: 0, DomainHi: 10}
	code, err := c.Encode(value.NewInt(7))
	if err != nil || code != 7 {
		t.Fatalf("Encode(7) = %d, %v", code, err)
	}
	if !value.Equal(c.Decode(7), value.NewInt(7)) {
		t.Error("Decode(7) wrong")
	}
	if _, err := c.Encode(value.NewString("x")); err == nil {
		t.Error("Encode accepted a string for an int column")
	}
}

func TestEncodeDecodeFloat(t *testing.T) {
	c := &Column{Name: "p", Type: Float, Scale: 100, DomainLo: 0, DomainHi: 10000}
	code, err := c.Encode(value.NewFloat(12.34))
	if err != nil || code != 1234 {
		t.Fatalf("Encode(12.34) = %d, %v", code, err)
	}
	if got := c.Decode(1234); !value.Equal(got, value.NewFloat(12.34)) {
		t.Errorf("Decode(1234) = %v", got)
	}
	// Integer values encode on float columns too.
	code, err = c.Encode(value.NewInt(5))
	if err != nil || code != 500 {
		t.Fatalf("Encode(5) = %d, %v", code, err)
	}
	if _, err := c.Encode(value.NewFloat(math.Inf(1))); err == nil {
		t.Error("Encode accepted +Inf")
	}
}

func TestEncodeDecodeString(t *testing.T) {
	c := &Column{Name: "s", Type: String, Dict: []string{"ant", "bee", "cat"}, DomainLo: 0, DomainHi: 3}
	code, err := c.Encode(value.NewString("bee"))
	if err != nil || code != 1 {
		t.Fatalf("Encode(bee) = %d, %v", code, err)
	}
	if got := c.Decode(1); got.Str() != "bee" {
		t.Errorf("Decode(1) = %v", got)
	}
	if _, err := c.Encode(value.NewString("dog")); err == nil {
		t.Error("Encode accepted out-of-dictionary string")
	}
	// Out-of-dictionary codes decode deterministically (what-if scenarios).
	if got := c.Decode(99); got.Str() == "" {
		t.Error("Decode(99) should render something")
	}
	if c.EncodeRank("bat") != 1 || c.EncodeRank("ant") != 0 || c.EncodeRank("zzz") != 3 {
		t.Error("EncodeRank wrong")
	}
}

func TestColumnDomain(t *testing.T) {
	c := &Column{Name: "x", Type: Int, DomainLo: 3, DomainHi: 9}
	if c.Domain() != value.Ival(3, 9) {
		t.Errorf("Domain = %v", c.Domain())
	}
}

func TestCloneDeep(t *testing.T) {
	s := twoTableSchema()
	s.Tables[0].Columns[1].Type = String
	s.Tables[0].Columns[1].Dict = []string{"a", "b"}
	c := s.Clone()
	c.Tables[0].Columns[1].Dict[0] = "zzz"
	c.Tables[1].Columns[1].Ref.Table = "other"
	c.Tables[0].RowCount = 999
	if s.Tables[0].Columns[1].Dict[0] != "a" {
		t.Error("Clone shares dictionaries")
	}
	if s.Tables[1].Columns[1].Ref.Table != "dim" {
		t.Error("Clone shares foreign keys")
	}
	if s.Tables[0].RowCount != 10 {
		t.Error("Clone shares row counts")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := twoTableSchema()
	s.Tables[0].Columns[1].Type = String
	s.Tables[0].Columns[1].Dict = []string{"x", "y"}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Schema
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("round-tripped schema invalid: %v", err)
	}
	if got.Table("fact").Columns[1].Ref.Table != "dim" {
		t.Error("fk lost in round trip")
	}
	if got.Table("dim").Columns[1].Dict[1] != "y" {
		t.Error("dict lost in round trip")
	}
}

func TestColumnTypeText(t *testing.T) {
	for _, ct := range []ColumnType{Int, Float, String} {
		b, err := ct.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var got ColumnType
		if err := got.UnmarshalText(b); err != nil || got != ct {
			t.Errorf("round trip %v failed: %v %v", ct, got, err)
		}
	}
	var ct ColumnType
	if err := ct.UnmarshalText([]byte("BOGUS")); err == nil {
		t.Error("UnmarshalText accepted BOGUS")
	}
}
