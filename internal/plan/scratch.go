package plan

import (
	"sync"

	"m2m/internal/vcover"
)

// edgeScratch is pooled per-worker state for solveEdge: the vcover problem
// under construction, whose slices keep their storage from edge to edge.
type edgeScratch struct {
	prob vcover.Problem
}

var edgeScratchPool = sync.Pool{New: func() any { return new(edgeScratch) }}

func getEdgeScratch() *edgeScratch   { return edgeScratchPool.Get().(*edgeScratch) }
func putEdgeScratch(sc *edgeScratch) { edgeScratchPool.Put(sc) }
