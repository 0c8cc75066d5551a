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
	// builder (many interaction atoms map to the same destination): trans
	// is a dense rate accumulator over destination states, touched lists
	// the destinations the current state has contributed to, in first-touch
	// order. flush clears every touched entry, so trans is all zero between
	// states.
	trans   []float64
	touched []int
	// peers carries the peer-share vector handed to the interactions.
	peers []int
}

func newLevelSlot() *levelSlot {
	return &levelSlot{bl: markov.NewBuilder(0)}
}

// add accumulates one transition contribution of the current state.
func (sl *levelSlot) add(dst int, rate float64) {
	if sl.trans[dst] == 0 {
		sl.touched = append(sl.touched, dst)
	}
	sl.trans[dst] += rate
}

// flush hands the current state's merged transitions to the builder and
// clears the accumulator for the next state. A destination whose partial
// sum was still 0 when touched again is listed twice; its second visit
// finds the entry already cleared and the builder ignores the zero rate.
func (sl *levelSlot) flush(from int) {
	for _, dst := range sl.touched {
		sl.bl.Add(from, dst, sl.trans[dst])
		sl.trans[dst] = 0
	}
	sl.touched = sl.touched[:0]
}

// transientCache shares the transients of one SolveAll's readout levels.
// Every readout conditions on the same last spine level, so the projections
// (see interactions.project) of that level's uniformization iterates depend
// only on the start group a transient begins from, never on the readout:
// each start is stepped once per SolveAll, and every readout copies the
// projections and applies its own finish (self-exclusion shift, then
// truncation). The Solver resets it once per SolveAll; its buffers are kept
// across calls.
type transientCache struct {
	// starts[start+1] locates the projections of the transient from start
	// (slot 0 is steadyStart).
	starts []cachedStart
	// bufs[:used] hold this SolveAll's projections.
	bufs [][]float64
	used int
}

// cachedStart locates one start's projections: bufs[first:first+n], the
// iterates before the transient relaxed.
type cachedStart struct {
	built    bool
	first, n int
}

// reset empties the cache for the readouts of a new spine, whose last
// level is prev.
func (tc *transientCache) reset(prev *level) {
	tc.used = 0
	n := len(prev.groups) + 1
	if cap(tc.starts) < n {
		tc.starts = make([]cachedStart, n)
	}
	tc.starts = tc.starts[:n]
	clear(tc.starts)
}

// next hands out a zeroed projection buffer of length dim.
func (tc *transientCache) next(dim int) []float64 {
	if tc.used == len(tc.bufs) {
		tc.bufs = append(tc.bufs, nil)
	}
	b := growFloats(tc.bufs[tc.used], dim)
	clear(b)
	tc.bufs[tc.used] = b
	tc.used++
	return b
}

// iterates returns (stepping on first use) the projections of the
// transient from start, run by in, a readout level's interactions.
func (tc *transientCache) iterates(in *interactions, start int) [][]float64 {
	e := &tc.starts[start+1]
	if !e.built {
		first := tc.used
		n := in.transient(start, func(_ int, v []float64) { in.project(v, tc.next(in.dim)) })
		*e = cachedStart{built: true, first: first, n: n}
	}
	return tc.bufs[e.first : e.first+e.n]
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
