package aqp

import (
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
)

func samplePlan() *Node {
	return &Node{
		Op: "AGGREGATE", Card: 1,
		Children: []*Node{{
			Op: "HASH JOIN", Join: "f.d_fk = d.d_pk", Card: 10,
			Children: []*Node{
				{Op: "SCAN", Table: "f", Card: 100},
				{Op: "FILTER", Table: "d", Pred: "a < 5", Card: 3,
					Children: []*Node{{Op: "SCAN", Table: "d", Card: 20}}},
			},
		}},
	}
}

func TestFromExec(t *testing.T) {
	en := &engine.ExecNode{Op: "FILTER", Table: "t", PredSQL: "x < 1", OutRows: 5,
		Children: []*engine.ExecNode{{Op: "SCAN", Table: "t", OutRows: 9}}}
	n := FromExec(en)
	if n.Op != "FILTER" || n.Card != 5 || n.Children[0].Card != 9 {
		t.Errorf("FromExec = %+v", n)
	}
	if FromExec(nil) != nil {
		t.Error("FromExec(nil) should be nil")
	}
}

func TestCloneAndEdges(t *testing.T) {
	p := samplePlan()
	c := p.Clone()
	c.Children[0].Card = 999
	if p.Children[0].Card != 10 {
		t.Error("Clone shares nodes")
	}
	if p.Edges() != 5 {
		t.Errorf("Edges = %d, want 5", p.Edges())
	}
}

func TestValidate(t *testing.T) {
	if err := samplePlan().Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := samplePlan()
	bad.Children[0].Children[1].Card = 50 // filter output > scan input
	if err := bad.Validate(); err == nil {
		t.Error("filter blow-up accepted")
	}
	neg := samplePlan()
	neg.Children[0].Card = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative cardinality accepted")
	}
	agg := samplePlan()
	agg.Card = 3
	if err := agg.Validate(); err == nil {
		t.Error("multi-row aggregate accepted")
	}
}

func TestCompare(t *testing.T) {
	a, b := samplePlan(), samplePlan()
	b.Children[0].Card = 12
	diffs, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 5 {
		t.Fatalf("diffs = %d", len(diffs))
	}
	found := false
	for _, d := range diffs {
		if d.Expected == 10 && d.Actual == 12 {
			found = true
			if math.Abs(d.RelErr-0.2) > 1e-9 {
				t.Errorf("RelErr = %v", d.RelErr)
			}
			if !strings.Contains(d.Path, "HASH JOIN") {
				t.Errorf("path = %q", d.Path)
			}
		}
	}
	if !found {
		t.Error("changed edge not reported")
	}

	// Shape mismatch errors.
	c := samplePlan()
	c.Children[0].Children = c.Children[0].Children[:1]
	if _, err := Compare(a, c); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(0, 0) != 0 {
		t.Error("0/0 should be 0")
	}
	if !math.IsInf(RelErr(0, 5), 1) {
		t.Error("0 expected, >0 actual should be +Inf")
	}
	if RelErr(10, 5) != 0.5 {
		t.Error("basic relative error wrong")
	}
}

func TestStringRendering(t *testing.T) {
	s := samplePlan().String()
	for _, frag := range []string{"AGGREGATE", "HASH JOIN", "[a < 5]", "-> 10 rows"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() missing %q:\n%s", frag, s)
		}
	}
}
