package plan

import (
	"sync"

	"m2m/internal/graph"
	"m2m/internal/vcover"
)

// edgeScratch is pooled per-worker state for solveEdge: the vcover problem
// under construction plus node-indexed scratch arrays replacing the
// per-solve map[graph.NodeID] structures. The instance already numbers
// nodes densely (0..Net.Len()-1), so index arrays with a stamp epoch give
// O(1) source/destination lookup with no hashing and no clearing — only
// stamps matching the current epoch are live.
type edgeScratch struct {
	prob    vcover.Problem
	sources []graph.NodeID
	dests   []graph.NodeID
	uIdx    []int32 // node → U index, valid for this solve's sources only
	vIdx    []int32 // node → V index, valid for this solve's dests only
	vStamp  []int32 // dedup stamp for dests
	epoch   int32
}

var edgeScratchPool = sync.Pool{New: func() any { return new(edgeScratch) }}

func getEdgeScratch() *edgeScratch   { return edgeScratchPool.Get().(*edgeScratch) }
func putEdgeScratch(sc *edgeScratch) { edgeScratchPool.Put(sc) }

// ensure sizes the node-indexed arrays for a network of n nodes and opens a
// fresh stamp epoch.
func (sc *edgeScratch) ensure(n int) {
	if cap(sc.uIdx) < n {
		sc.uIdx = make([]int32, n)
		sc.vIdx = make([]int32, n)
		sc.vStamp = make([]int32, n)
	}
	sc.uIdx = sc.uIdx[:n]
	sc.vIdx = sc.vIdx[:n]
	sc.vStamp = sc.vStamp[:n]
	sc.epoch++
	if sc.epoch == 0 { // stamp wrap: invalidate everything once
		for i := range sc.vStamp {
			sc.vStamp[i] = -1
		}
		sc.epoch = 1
	}
}
