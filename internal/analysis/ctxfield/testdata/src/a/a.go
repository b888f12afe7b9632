// Package a exercises the ctxfield analyzer: execCtl is the sanctioned
// context holder, session is the violation.
package a

import "context"

// execCtl is the engine's one sanctioned context binding point.
type execCtl struct {
	ctx context.Context
	err error
}

// session stores a context for later use — the lifetime bug PR 6 removed.
type session struct {
	ctx  context.Context // want `context\.Context stored in struct session`
	name string
}

type db struct {
	ctl execCtl
}
