package approx

import "scshare/internal/markov"

// levelSlot is one reusable level arena: the level scaffolding (state
// indexing, steady state, summaries), the interaction scratch, the
// generator builder, and the steady-state workspace, all cycled across
// passes, grid points, and solves. A Solver owns one slot per chain
// position plus one for the SolveAll readouts; slot reuse across builds is safe
// because every level is fully rebuilt before it is read and readers only
// ever consume the immediately previous level.
type levelSlot struct {
	lv    level
	inter interactions
	bl    *markov.Builder
	work  markov.Workspace
	// trans merges per-state transition contributions before they reach the
	// builder (many interaction atoms map to the same destination).
	trans map[int]float64
	// peers carries the peer-share vector handed to the interactions.
	peers []int
}

func newLevelSlot() *levelSlot {
	return &levelSlot{
		bl:    markov.NewBuilder(0),
		trans: make(map[int]float64, 256),
	}
}

// growFloats resizes s to length n, reusing capacity when possible. The
// contents are unspecified; callers overwrite or zero them.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growInts is growFloats for int slices.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
