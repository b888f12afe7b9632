// Package schema models relational schemas for Hydra: tables, typed columns
// with integer-coded domains, primary keys, and the foreign-key graph.
//
// Hydra assumes warehouse-style schemas: each table has a single integer
// surrogate primary key, and foreign keys reference primary keys, forming an
// acyclic graph (star/snowflake). TopoOrder yields referenced (dimension)
// tables before referencing (fact) tables, which is the processing order the
// deterministic-alignment algorithm requires.
package schema

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/value"
)

// ColumnType is the declared type of a column.
type ColumnType uint8

// Supported column types.
const (
	Int ColumnType = iota
	Float
	String
)

// String returns the SQL-ish name of the type.
func (t ColumnType) String() string {
	switch t {
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case String:
		return "VARCHAR"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// MarshalText implements encoding.TextMarshaler for JSON round-trips.
func (t ColumnType) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (t *ColumnType) UnmarshalText(b []byte) error {
	switch string(b) {
	case "INT":
		*t = Int
	case "FLOAT":
		*t = Float
	case "VARCHAR":
		*t = String
	default:
		return fmt.Errorf("schema: unknown column type %q", b)
	}
	return nil
}

// ForeignKey names the primary-key column another column references.
type ForeignKey struct {
	Table  string `json:"table"`
	Column string `json:"column"`
}

// Column describes one attribute. Every column has an integer-coded domain
// [DomainLo, DomainHi): ints are their own codes, floats are quantized by
// Scale (code = round(v*Scale)), and strings are dictionary ranks.
type Column struct {
	Name       string      `json:"name"`
	Type       ColumnType  `json:"type"`
	PrimaryKey bool        `json:"primary_key,omitempty"`
	Ref        *ForeignKey `json:"ref,omitempty"`

	// DomainLo/DomainHi bound the coded domain, half-open.
	DomainLo int64 `json:"domain_lo"`
	DomainHi int64 `json:"domain_hi"`

	// Scale quantizes float columns; ignored for other types. A Scale of
	// 100 stores two decimal digits exactly.
	Scale float64 `json:"scale,omitempty"`

	// Dict is the sorted value dictionary for string columns.
	Dict []string `json:"dict,omitempty"`
}

// Domain returns the column's coded domain as an interval.
func (c *Column) Domain() value.Interval { return value.Ival(c.DomainLo, c.DomainHi) }

// Encode maps a scalar to its integer code. Values outside the dictionary
// or non-finite floats yield an error.
func (c *Column) Encode(v value.Value) (int64, error) {
	switch c.Type {
	case Int:
		if v.Kind() != value.KindInt {
			return 0, fmt.Errorf("schema: column %s expects int, got %s", c.Name, v.Kind())
		}
		return v.Int(), nil
	case Float:
		if v.Kind() != value.KindInt && v.Kind() != value.KindFloat {
			return 0, fmt.Errorf("schema: column %s expects numeric, got %s", c.Name, v.Kind())
		}
		f := v.AsFloat() * c.scale()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, fmt.Errorf("schema: column %s: non-finite float", c.Name)
		}
		return int64(math.Round(f)), nil
	case String:
		if v.Kind() != value.KindString {
			return 0, fmt.Errorf("schema: column %s expects string, got %s", c.Name, v.Kind())
		}
		i, ok := c.dictIndex(v.Str())
		if !ok {
			return 0, fmt.Errorf("schema: column %s: string %q not in dictionary", c.Name, v.Str())
		}
		return int64(i), nil
	default:
		return 0, fmt.Errorf("schema: column %s: unknown type", c.Name)
	}
}

// EncodeRank maps a string to the dictionary rank boundary it would occupy:
// the index of the first dictionary entry >= s. Used to translate range
// predicates over strings into code intervals even for constants that are
// not dictionary members.
func (c *Column) EncodeRank(s string) int64 {
	return int64(sort.SearchStrings(c.Dict, s))
}

func (c *Column) dictIndex(s string) (int, bool) {
	i := sort.SearchStrings(c.Dict, s)
	if i < len(c.Dict) && c.Dict[i] == s {
		return i, true
	}
	return 0, false
}

// Decode maps an integer code back to a scalar of the column's type.
func (c *Column) Decode(code int64) value.Value {
	switch c.Type {
	case Int:
		return value.NewInt(code)
	case Float:
		return value.NewFloat(float64(code) / c.scale())
	case String:
		if code < 0 || code >= int64(len(c.Dict)) {
			// Out-of-dictionary codes arise only from synthetic
			// what-if scenarios; render them deterministically.
			return value.NewString(fmt.Sprintf("synth_%s_%d", c.Name, code))
		}
		return value.NewString(c.Dict[code])
	default:
		return value.Null
	}
}

func (c *Column) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

// Table is a named relation with columns and the client-side row count.
type Table struct {
	Name     string    `json:"name"`
	Columns  []*Column `json:"columns"`
	RowCount int64     `json:"row_count"`
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	if i := t.ColumnIndex(name); i >= 0 {
		return t.Columns[i]
	}
	return nil
}

// PKIndex returns the position of the primary-key column, or -1.
func (t *Table) PKIndex() int {
	for i, c := range t.Columns {
		if c.PrimaryKey {
			return i
		}
	}
	return -1
}

// Schema is an ordered collection of tables.
type Schema struct {
	Tables []*Table `json:"tables"`
}

// Table returns the named table, or nil.
func (s *Schema) Table(name string) *Table {
	for _, t := range s.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Validate checks structural invariants: unique names, exactly one integer
// primary key per table, foreign keys referencing existing primary keys,
// sane domains, sorted dictionaries, and an acyclic foreign-key graph.
func (s *Schema) Validate() error {
	seen := make(map[string]bool, len(s.Tables))
	for _, t := range s.Tables {
		if t == nil || slices.Contains(t.Columns, nil) {
			return fmt.Errorf("schema: null table or column")
		}
	}
	for _, t := range s.Tables {
		if t.Name == "" {
			return fmt.Errorf("schema: table with empty name")
		}
		if seen[t.Name] {
			return fmt.Errorf("schema: duplicate table %s", t.Name)
		}
		seen[t.Name] = true
		if t.RowCount < 0 {
			return fmt.Errorf("schema: table %s: negative row count", t.Name)
		}
		if err := t.validateColumns(s); err != nil {
			return err
		}
	}
	if _, err := s.TopoOrder(); err != nil {
		return err
	}
	return nil
}

func (t *Table) validateColumns(s *Schema) error {
	cols := make(map[string]bool, len(t.Columns))
	pks := 0
	for _, c := range t.Columns {
		if c.Name == "" {
			return fmt.Errorf("schema: table %s: column with empty name", t.Name)
		}
		if cols[c.Name] {
			return fmt.Errorf("schema: table %s: duplicate column %s", t.Name, c.Name)
		}
		cols[c.Name] = true
		if c.PrimaryKey {
			pks++
			if c.Type != Int {
				return fmt.Errorf("schema: table %s: primary key %s must be INT", t.Name, c.Name)
			}
		}
		if c.DomainHi < c.DomainLo {
			return fmt.Errorf("schema: table %s: column %s: inverted domain [%d,%d)", t.Name, c.Name, c.DomainLo, c.DomainHi)
		}
		if c.DomainLo < value.DomainMin || c.DomainHi > value.DomainMax {
			return fmt.Errorf("schema: table %s: column %s: domain exceeds global bounds", t.Name, c.Name)
		}
		if c.Type == String && !sort.StringsAreSorted(c.Dict) {
			return fmt.Errorf("schema: table %s: column %s: dictionary not sorted", t.Name, c.Name)
		}
		if c.Ref != nil {
			rt := s.Table(c.Ref.Table)
			if rt == nil {
				return fmt.Errorf("schema: table %s: column %s references missing table %s", t.Name, c.Name, c.Ref.Table)
			}
			rc := rt.Column(c.Ref.Column)
			if rc == nil || !rc.PrimaryKey {
				return fmt.Errorf("schema: table %s: column %s must reference a primary key (%s.%s)", t.Name, c.Name, c.Ref.Table, c.Ref.Column)
			}
			if c.Type != Int {
				return fmt.Errorf("schema: table %s: foreign key %s must be INT", t.Name, c.Name)
			}
		}
	}
	if pks != 1 {
		return fmt.Errorf("schema: table %s: expected exactly one primary key, found %d", t.Name, pks)
	}
	return nil
}

// TopoOrder returns the tables ordered so that every referenced table
// precedes its referrers (dimensions before facts). It fails on FK cycles.
func (s *Schema) TopoOrder() ([]*Table, error) {
	indeg := make(map[string]int, len(s.Tables))
	// dependents[d] lists tables that reference table d.
	dependents := make(map[string][]string)
	for _, t := range s.Tables {
		if _, ok := indeg[t.Name]; !ok {
			indeg[t.Name] = 0
		}
		refs := make(map[string]bool)
		for _, c := range t.Columns {
			if c.Ref != nil && c.Ref.Table != t.Name && !refs[c.Ref.Table] {
				refs[c.Ref.Table] = true
				indeg[t.Name]++
				dependents[c.Ref.Table] = append(dependents[c.Ref.Table], t.Name)
			}
		}
	}
	// Deterministic order: seed queue in schema order.
	var queue []string
	for _, t := range s.Tables {
		if indeg[t.Name] == 0 {
			queue = append(queue, t.Name)
		}
	}
	var out []*Table
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		out = append(out, s.Table(name))
		for _, dep := range dependents[name] {
			indeg[dep]--
			if indeg[dep] == 0 {
				queue = append(queue, dep)
			}
		}
	}
	if len(out) != len(s.Tables) {
		return nil, fmt.Errorf("schema: foreign-key graph contains a cycle")
	}
	return out, nil
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	out := &Schema{Tables: make([]*Table, len(s.Tables))}
	for i, t := range s.Tables {
		nt := &Table{Name: t.Name, RowCount: t.RowCount, Columns: make([]*Column, len(t.Columns))}
		for j, c := range t.Columns {
			nc := *c
			if c.Ref != nil {
				ref := *c.Ref
				nc.Ref = &ref
			}
			if c.Dict != nil {
				nc.Dict = append([]string(nil), c.Dict...)
			}
			nt.Columns[j] = &nc
		}
		out.Tables[i] = nt
	}
	return out
}
