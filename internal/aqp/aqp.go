// Package aqp implements Annotated Query Plans: operator trees whose output
// edges carry the row cardinality observed during the client's execution
// (Binnig et al., QAGen). AQPs are the unit of information Hydra ships from
// client to vendor, the input to LP formulation, and the yardstick for
// volumetric-similarity verification.
package aqp

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/engine"
)

// Node is one operator of an AQP with its annotated output cardinality.
type Node struct {
	Op       string  `json:"op"`
	Table    string  `json:"table,omitempty"`
	Pred     string  `json:"pred,omitempty"`
	Join     string  `json:"join,omitempty"`
	Card     int64   `json:"card"`
	Children []*Node `json:"children,omitempty"`
}

// AQP couples a query's SQL text with its annotated plan.
type AQP struct {
	SQL  string `json:"sql"`
	Plan *Node  `json:"plan"`
}

// FromExec converts an executed operator tree into an AQP node tree.
func FromExec(n *engine.ExecNode) *Node {
	if n == nil {
		return nil
	}
	out := &Node{
		Op:    n.Op,
		Table: n.Table,
		Pred:  n.PredSQL,
		Join:  n.JoinSQL,
		Card:  n.OutRows,
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, FromExec(c))
	}
	return out
}

// Clone returns a deep copy of the node tree.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	out := &Node{Op: n.Op, Table: n.Table, Pred: n.Pred, Join: n.Join, Card: n.Card}
	for _, c := range n.Children {
		out.Children = append(out.Children, c.Clone())
	}
	return out
}

// Walk visits every node pre-order.
func (n *Node) Walk(fn func(*Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Edges returns the number of annotated edges (nodes) in the tree.
func (n *Node) Edges() int {
	count := 0
	n.Walk(func(*Node) { count++ })
	return count
}

// Validate checks the structural invariants a vendor-received AQP must hold:
// non-negative cardinalities, children cardinalities consistent with
// monotone operators (a filter or join never outputs more rows than a
// cross-product bound; an aggregate outputs one row).
func (n *Node) Validate() error {
	var err error
	n.Walk(func(nd *Node) {
		if err != nil {
			return
		}
		if nd.Card < 0 {
			err = fmt.Errorf("aqp: node %s has negative cardinality %d", nd.Op, nd.Card)
			return
		}
		switch nd.Op {
		case "FILTER":
			if len(nd.Children) != 1 {
				err = fmt.Errorf("aqp: FILTER must have one child")
				return
			}
			if nd.Card > nd.Children[0].Card {
				err = fmt.Errorf("aqp: FILTER outputs %d > input %d", nd.Card, nd.Children[0].Card)
			}
		case "HASH JOIN":
			if len(nd.Children) != 2 {
				err = fmt.Errorf("aqp: HASH JOIN must have two children")
			}
		case "AGGREGATE":
			if len(nd.Children) != 1 {
				err = fmt.Errorf("aqp: AGGREGATE must have one child")
				return
			}
			if nd.Card != 1 {
				err = fmt.Errorf("aqp: AGGREGATE outputs %d rows, want 1", nd.Card)
			}
		case "SCAN":
			if len(nd.Children) != 0 {
				err = fmt.Errorf("aqp: SCAN must be a leaf")
			}
		}
	})
	return err
}

// EdgeDiff reports one edge's expected (client) vs actual (regenerated)
// cardinality.
type EdgeDiff struct {
	Path     string  `json:"path"` // e.g. "HASH JOIN/FILTER(item)"
	Op       string  `json:"op"`
	Expected int64   `json:"expected"`
	Actual   int64   `json:"actual"`
	RelErr   float64 `json:"rel_err"`
}

// Compare walks two isomorphic plans and reports every edge's cardinality
// difference. It errors if the trees have different shapes.
func Compare(expected, actual *Node) ([]EdgeDiff, error) {
	var out []EdgeDiff
	var walk func(e, a *Node, path string) error
	walk = func(e, a *Node, path string) error {
		if (e == nil) != (a == nil) {
			return fmt.Errorf("aqp: plan shapes differ at %s", path)
		}
		if e == nil {
			return nil
		}
		if e.Op != a.Op || len(e.Children) != len(a.Children) {
			return fmt.Errorf("aqp: plan shapes differ at %s (%s vs %s)", path, e.Op, a.Op)
		}
		label := e.Op
		if e.Table != "" {
			label += "(" + e.Table + ")"
		}
		p := path + "/" + label
		out = append(out, EdgeDiff{
			Path:     strings.TrimPrefix(p, "/"),
			Op:       e.Op,
			Expected: e.Card,
			Actual:   a.Card,
			RelErr:   RelErr(e.Card, a.Card),
		})
		for i := range e.Children {
			if err := walk(e.Children[i], a.Children[i], p); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(expected, actual, ""); err != nil {
		return nil, err
	}
	return out, nil
}

// RelErr is |expected-actual| / expected, with the convention that an
// expected value of 0 yields 0 when actual is also 0 and +Inf otherwise.
func RelErr(expected, actual int64) float64 {
	if expected == 0 {
		if actual == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(float64(expected-actual)) / float64(expected)
}

// String renders the plan as an indented tree with cardinality annotations,
// in the spirit of the demo's plan display.
func (n *Node) String() string {
	var sb strings.Builder
	var rec func(nd *Node, depth int)
	rec = func(nd *Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(nd.Op)
		if nd.Table != "" {
			sb.WriteString(" " + nd.Table)
		}
		if nd.Pred != "" {
			sb.WriteString(" [" + nd.Pred + "]")
		}
		if nd.Join != "" {
			sb.WriteString(" (" + nd.Join + ")")
		}
		fmt.Fprintf(&sb, "  -> %d rows\n", nd.Card)
		for _, c := range nd.Children {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return sb.String()
}
