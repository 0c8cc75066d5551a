package approx

import (
	"math"

	"scshare/internal/numeric"
)

// allocEntry is one atom of an interaction probability vector: with
// probability p the predecessors hold aloc of the current SC's shared VMs
// and arem other shared VMs; cong reports whether they have waiting
// requests (deciding the lend-or-keep branches of C4/C5) and dead is the
// share headroom the previous SC advertises but cannot back with idle VMs
// (subtracted from the borrowable pool in C2).
type allocEntry struct {
	aloc, arem int
	dead       int
	cong       bool
	p          float64
}

// tauBucketWidth is the log-spacing used to quantize inter-event durations
// so interaction vectors can be cached across states.
const tauBucketWidth = 0.4

// relaxationCutoff is the number of expected uniformized jumps beyond which
// the conditional distribution is treated as fully relaxed to the steady
// state.
const relaxationCutoff = 10.0

// defaultPrune drops negligible atoms from interaction vectors; the
// remainder is renormalized, so total event rates are preserved.
const defaultPrune = 1e-6

// steadyRelaxTol declares a transient iterate fully relaxed once its L1
// distance to the steady state falls below it; further stepping only
// accumulates rounding error.
const steadyRelaxTol = 1e-8

// jointMassEps skips joint-distribution atoms whose weight is numerically
// zero when re-binning conditional vectors.
const jointMassEps = 1e-15

// groupMassEps is the group probability mass below which conditioning on
// the group is numerically meaningless and the atom is dropped.
const groupMassEps = 1e-14

type cacheKey struct {
	group  int
	bucket int
}

// interactions produces the P^A / P^D_loc / P^D_rem vectors of one level
// from the solved previous level. A nil prev represents M^1, which has no
// predecessors: the vectors collapse to the point mass (0, 0, idle).
//
// The transient analysis is organized around a key linearity: the
// uniformization iterates v_k = pi^X P^k do not depend on the event
// duration tau — only the Poisson weights do. Each conditioning group
// therefore computes its iterates once, collapses every iterate to the
// small summary space (F, lent, dead, cong), and serves any tau bucket as
// a Poisson-weighted mixture of those cached summaries.
//
// An interactions value lives inside a levelSlot arena and is recycled via
// reset: the caches are cleared but their storage (summary-joint pool,
// iterate buffers, entry slab, merge scratch) survives, so steady-state
// builds after the first one run nearly allocation-free.
type interactions struct {
	prev     *level
	curShare int // S of the SC whose level is being built (marked pool)
	// peerShares are the shares of the other pool members (everyone except
	// the previous level's SC and the current SC). The foreign usage F is
	// split with lender weights min(S_j, F): a declared share only grabs
	// demand up to the concurrent demand itself, so over-declaring shares
	// buys no extra lending — without this saturation the market game
	// degenerates into a share-declaration arms race.
	peerShares []int
	epsilon    float64
	// preserveS keeps the current s across events for a predecessor-less
	// level whose s is driven by the explicit successor-demand process;
	// without that process s must collapse to 0 or the chain decomposes
	// into disconnected closed classes.
	preserveS bool
	prune     float64
	// truncEps is the adaptive truncation budget each summarized joint may
	// shed (already resolved by the Solver: <= 0 disables truncation).
	truncEps float64
	// counter accumulates the truncated mass; nil disables accounting.
	counter *PruneCounter
	// uncondition starts every transient from the unconditioned steady
	// state (accuracy ablation).
	uncondition bool
	// shiftF and shiftLent are the SolveAll readout self-exclusion shifts
	// (in VMs); see setSelfExclusion.
	shiftF, shiftLent float64

	// shared, when set, supplies the projected transient iterates instead
	// of stepping prev here. Only the Solver's readout slot sets it, and
	// SolveAll aims the cache at the last spine level, every readout's
	// prev, before the first readout. Left nil on chain levels; reset
	// keeps it.
	shared *transientCache

	gamma       float64
	kmax        int
	steadyJoint []float64
	groupJoints map[int][][]float64 // g -> J_0..J_kmax (summary joints)
	cache       map[cacheKey][]allocEntry
	// memo keeps each event type's last clamped vector (see alloc).
	memo [numEvents]clampMemo

	// Summary-space strides (see jointIndex).
	strideC, strideD, strideL, dim int

	// Arena scratch, reused across resets.
	jointPool    [][]float64  // summary-joint buffers handed out by nextJoint
	jointN       int          // jointPool[:jointN] are in use this build
	jsSlab       [][]float64  // backing storage for groupJoints' iterate lists
	iterA, iterB []float64    // full-state transient iterate buffers
	mixBuf       []float64    // Fox-Glynn mixture accumulator
	accBuf       []float64    // disaggregation accumulator
	entrySlab    []allocEntry // backing storage for cached vectors
	entryScratch []allocEntry // buildVector assembly buffer
	lineBuf      []float64    // shiftAxisDown line scratch
	scratch      []float64    // dense merge buffer reused by clamp
	scratchDim   int
}

// reset re-aims the interactions at a new previous level, clearing the
// caches while keeping their storage. truncEps must already be resolved
// (<= 0 disables truncation).
func (in *interactions) reset(prev *level, curShare int, peerShares []int, epsilon, prune, truncEps float64, counter *PruneCounter) {
	if epsilon <= 0 {
		epsilon = 1e-9
	}
	if prune <= 0 {
		prune = defaultPrune
	}
	in.prev = prev
	in.curShare = curShare
	in.peerShares = peerShares
	in.epsilon = epsilon
	in.prune = prune
	in.truncEps = truncEps
	in.counter = counter
	in.preserveS = false
	in.uncondition = false
	in.shiftF, in.shiftLent = 0, 0
	in.jointN = 0
	in.jsSlab = in.jsSlab[:0]
	in.entrySlab = in.entrySlab[:0]
	if in.groupJoints == nil {
		in.groupJoints = make(map[int][][]float64)
		in.cache = make(map[cacheKey][]allocEntry)
	} else {
		clear(in.groupJoints)
		clear(in.cache)
	}
	for i := range in.memo {
		in.memo[i].ok = false
	}
	in.gamma, in.kmax = 0, 0
	in.steadyJoint = nil
	in.strideC, in.strideD, in.strideL, in.dim = 0, 0, 0, 0
	if prev != nil {
		in.gamma = prev.gamma
		in.kmax = int(relaxationCutoff+6*math.Sqrt(relaxationCutoff)) + 4
		in.strideC = 2
		in.strideD = in.strideC * (prev.share + 1)
		in.strideL = in.strideD * (prev.share + 1)
		in.dim = in.strideL * (prev.poolDim + 1)
		in.steadyJoint = in.summarize(prev.steady)
	}
}

// nextJoint hands out a zeroed summary-joint buffer of the current
// dimension from the pool (see jointBuf).
func (in *interactions) nextJoint() []float64 {
	j := in.jointBuf()
	for i := range j {
		j[i] = 0
	}
	return j
}

// copyJoint hands out a pool buffer holding a copy of src.
func (in *interactions) copyJoint(src []float64) []float64 {
	j := in.jointBuf()
	copy(j, src)
	return j
}

// jointBuf hands out a summary-joint buffer of the current dimension, with
// unspecified contents, from the pool, growing it on first use. Buffers
// stay checked out until the next reset (they back groupJoints and
// steadyJoint).
func (in *interactions) jointBuf() []float64 {
	var j []float64
	if in.jointN < len(in.jointPool) {
		j = growFloats(in.jointPool[in.jointN], in.dim)
		in.jointPool[in.jointN] = j
	} else {
		j = make([]float64, in.dim)
		in.jointPool = append(in.jointPool, j)
	}
	in.jointN++
	return j
}

// nextJS hands out a kmax+1-long iterate list backed by the slab. Earlier
// lists keep pointing at whatever backing array they were carved from, so
// slab growth never invalidates them.
func (in *interactions) nextJS() [][]float64 {
	start := len(in.jsSlab)
	want := start + in.kmax + 1
	for len(in.jsSlab) < want {
		in.jsSlab = append(in.jsSlab, nil)
	}
	return in.jsSlab[start:want:want]
}

// persist copies a finished interaction vector into the entry slab so it
// can live in the cache while the assembly buffers are recycled.
func (in *interactions) persist(src []allocEntry) []allocEntry {
	start := len(in.entrySlab)
	in.entrySlab = append(in.entrySlab, src...)
	return in.entrySlab[start : start+len(src) : start+len(src)]
}

var pointMass = []allocEntry{{p: 1}}

// Event types of a level build, each with its own clamp memo.
const (
	evArrival = iota
	evLocalDeparture
	evRemoteDeparture
	numEvents
)

// clampMemo is one event type's last alloc result and its key. The level
// build visits states with q innermost, and consecutive q at fixed (s, o,
// a) mostly share the conditioning group, the duration bucket and the
// clamps, so a single entry serves the bulk of the calls.
type clampMemo struct {
	ok                          bool
	g, bucket, capAloc, capArem int
	out                         []allocEntry
}

// alloc returns the interaction vector of event type ev for a state of the
// level under construction: the current allocations (s, a), the mean
// inter-event duration tau, and the state's legality clamps (aloc <=
// capAloc, arem <= capArem). The conditioning group is s+a — the previous
// level's usage as visible from a chain level — plus, on readout levels,
// the share of the current o that the previous SC's own lent count carries
// (see setSelfExclusion). Without predecessors the current allocations are
// preserved: they belong to the successor-demand process, which has its
// own explicit transitions.
//
// The returned slice is ev's memo buffer: it is valid until the next alloc
// call for the same event type and must be consumed before then.
func (in *interactions) alloc(ev, s, a int, tau float64, capAloc, capArem int) []allocEntry {
	m := &in.memo[ev]
	if in.prev == nil {
		if in.preserveS {
			m.out = append(m.out[:0], allocEntry{aloc: min(s, capAloc), p: 1})
			return m.out
		}
		return pointMass
	}
	capAloc, capArem = max(capAloc, 0), max(capArem, 0)
	g := s + a
	bucket := int(math.Round(math.Log(tau) / tauBucketWidth))
	if m.ok && m.g == g && m.bucket == bucket && m.capAloc == capAloc && m.capArem == capArem {
		return m.out
	}
	m.out = in.clamp(m.out[:0], in.lookup(g, bucket), capAloc, capArem)
	m.ok, m.g, m.bucket, m.capAloc, m.capArem = true, g, bucket, capAloc, capArem
	return m.out
}

// jointIndex addresses the summary cell of (foreign, lent, dead, cong).
func (in *interactions) jointIndex(f, lent, dead, cong int) int {
	return f*in.strideL + lent*in.strideD + dead*in.strideC + cong
}

// summarize collapses a full distribution over the previous level's states
// to the summary joint: project, then finish.
func (in *interactions) summarize(p []float64) []float64 {
	return in.finish(in.project(p, in.nextJoint()))
}

// project adds the full distribution p over the previous level's states
// into the zeroed summary joint out and returns out. It is linear in p and
// independent of the readout shifts, which is what lets SolveAll share it
// across readouts.
func (in *interactions) project(p, out []float64) []float64 {
	prev := in.prev
	for idx, w := range p {
		if w == 0 {
			continue
		}
		c := 0
		if prev.cong[idx] {
			c = 1
		}
		out[in.jointIndex(prev.foreign[idx], prev.lent[idx], prev.dead[idx], c)] += w
	}
	return out
}

// finish turns a projection into a summary in place: it applies the
// self-exclusion shifts when installed and then the adaptive truncation:
// cells below the per-cell slice of the truncEps budget are zeroed and the
// survivors rescaled, so the summary keeps its total mass (event rates are
// preserved) while the downstream mixing and disaggregation loops skip the
// dropped support. The discarded mass is recorded in the counter.
func (in *interactions) finish(out []float64) []float64 {
	if in.shiftLent > 0 {
		in.shiftAxisDown(out, in.strideD, in.strideL/in.strideD, in.shiftLent)
	}
	if in.shiftF > 0 {
		in.shiftAxisDown(out, in.strideL, len(out)/in.strideL, in.shiftF)
	}
	if in.truncEps > 0 {
		cell := in.truncEps / float64(len(out))
		var dropped, kept float64
		for i, w := range out {
			if w == 0 {
				continue
			}
			if w < cell {
				dropped += w
				out[i] = 0
			} else {
				kept += w
			}
		}
		if dropped > 0 {
			if kept > 0 {
				scale := (kept + dropped) / kept
				for i, w := range out {
					if w != 0 {
						out[i] = w * scale
					}
				}
			}
			in.counter.record(dropped)
		}
	}
	return out
}

// setSelfExclusion installs the SolveAll readout correction: the previous
// level's summary counts the readout SC's own expected borrowing (the
// readout SC was one of the spine's predecessors), so before the summary
// feeds this level's interaction vectors that usage is subtracted in
// expectation — shiftF VMs off the foreign-usage axis and shiftLent VMs off
// the previous SC's lent axis, each as a deterministic linear-interpolation
// translation. Must be called before the first alloc; it re-derives the
// cached steady joint so every subsequent summary (steady and transient
// iterates alike) carries the shift.
//
// The groups need the same correction from the other side: a readout
// level's conditioning aggregate s+a measures the previous level's usage
// *excluding* what it lent to the readout SC, while prev.groups are indexed
// by the unshifted lent+o+a. conditionalStart therefore adds the expected
// self-lending (shiftLent, floored) back before restricting, so the group
// aggregates line up with the unshifted states the groups index; the
// summaries of the selected states then carry the shift.
func (in *interactions) setSelfExclusion(shiftF, shiftLent float64) {
	if in.prev == nil {
		return
	}
	in.shiftF = shiftF
	in.shiftLent = shiftLent
	in.steadyJoint = in.summarize(in.prev.steady)
}

// shiftAxisDown translates probability mass down one axis of a summary
// joint by a possibly fractional number of units: each cell's mass moves to
// coordinate max(c-n, 0) with weight 1-frac and max(c-n-1, 0) with weight
// frac, where shift = n + frac. Mass that would land below zero piles up at
// zero, so the total is preserved. The axis is addressed by its stride and
// extent within the flat layout.
func (in *interactions) shiftAxisDown(joint []float64, stride, extent int, shift float64) {
	if shift <= 0 || extent <= 1 {
		return
	}
	n := int(shift)
	frac := shift - float64(n)
	outer := len(joint) / (stride * extent)
	in.lineBuf = growFloats(in.lineBuf, extent)
	line := in.lineBuf[:extent]
	for o := 0; o < outer; o++ {
		for r := 0; r < stride; r++ {
			base := o*stride*extent + r
			for c := 0; c < extent; c++ {
				line[c] = joint[base+c*stride]
				joint[base+c*stride] = 0
			}
			for c, w := range line {
				if w == 0 {
					continue
				}
				joint[base+max(c-n, 0)*stride] += w * (1 - frac)
				if frac > 0 {
					joint[base+max(c-n-1, 0)*stride] += w * frac
				}
			}
		}
	}
}

// groupIterates returns (building if needed) the summary joints of the
// uniformization iterates for conditioning group g. Once an iterate has
// relaxed to the steady state the remaining slots alias the steady joint.
// On readout levels the iterates' projections come from the shared cache
// and only their finish runs here.
func (in *interactions) groupIterates(g int) [][]float64 {
	if js, ok := in.groupJoints[g]; ok {
		return js
	}
	js := in.nextJS()
	start := in.startGroup(g)
	var n int
	if tc := in.shared; tc != nil {
		projs := tc.iterates(in, start)
		for k, p := range projs {
			js[k] = in.finish(in.copyJoint(p))
		}
		n = len(projs)
	} else {
		n = in.transient(start, func(k int, v []float64) { js[k] = in.summarize(v) })
	}
	for k := n; k <= in.kmax; k++ {
		js[k] = in.steadyJoint
	}
	in.groupJoints[g] = js
	return js
}

// transient runs the uniformization of the previous level from start (see
// startGroup), handing emit every iterate v_0, v_1, ... until one relaxes
// to the steady state or kmax is passed. It returns the number of iterates
// emitted; the ones after them are the steady state.
func (in *interactions) transient(start int, emit func(k int, v []float64)) int {
	prev := in.prev
	n := len(prev.steady)
	in.iterA = growFloats(in.iterA, n)
	in.iterB = growFloats(in.iterB, n)
	v, next := in.iterA[:n], in.iterB[:n]
	in.startInto(v, start)
	emit(0, v)
	for k := 1; k <= in.kmax; k++ {
		if err := prev.uniform.Step(next, v); err != nil {
			// Cannot happen for matching dimensions; degrade to steady.
			return k
		}
		v, next = next, v
		if numeric.L1Diff(v, prev.steady) < steadyRelaxTol {
			return k
		}
		emit(k, v)
	}
	return in.kmax + 1
}

// lookup returns (building if needed) the interaction vector for the
// conditioning group and duration bucket.
func (in *interactions) lookup(g, bucket int) []allocEntry {
	key := cacheKey{group: g, bucket: bucket}
	if v, ok := in.cache[key]; ok {
		return v
	}
	v := in.buildVector(g, math.Exp(float64(bucket)*tauBucketWidth))
	in.cache[key] = v
	return v
}

// buildVector mixes the cached iterate summaries with Poisson(gamma*tau)
// weights and disaggregates the result into interaction atoms. The returned
// vector is persisted in the entry slab (or is the shared point mass), so
// it stays valid for the cache while the assembly buffers are reused.
func (in *interactions) buildVector(g int, tau float64) []allocEntry {
	prev := in.prev
	jumps := in.gamma * tau
	var joint []float64
	switch {
	case jumps > relaxationCutoff:
		joint = in.steadyJoint
	case jumps < 0.05:
		joint = in.groupIterates(g)[0]
	default:
		js := in.groupIterates(g)
		fg := numeric.NewFoxGlynn(jumps, in.epsilon)
		in.mixBuf = growFloats(in.mixBuf, in.dim)
		mixed := in.mixBuf[:in.dim]
		for i := range mixed {
			mixed[i] = 0
		}
		for k := fg.Left; k <= fg.Right; k++ {
			w := fg.Weights[k-fg.Left]
			src := in.steadyJoint
			if k <= in.kmax {
				src = js[k]
			}
			for i, x := range src {
				mixed[i] += w * x
			}
		}
		joint = mixed
	}

	// Disaggregate: the foreign usage F splits hypergeometrically between
	// the current SC's pool slice and the rest of the previous level's
	// pool, with every lender's weight saturated at F itself (a share can
	// only capture as much lending as there is concurrent demand); the
	// previous SC's own lent VMs land in arem.
	maxArem := prev.poolDim + prev.share
	maxDead := prev.share
	strideC := 2
	strideD := strideC * (maxDead + 1)
	strideA := strideD * (maxArem + 1)
	in.accBuf = growFloats(in.accBuf, strideA*(in.curShare+1))
	acc := in.accBuf[:strideA*(in.curShare+1)]
	for i := range acc {
		acc[i] = 0
	}
	for i, w := range joint {
		if w < jointMassEps {
			continue
		}
		f := i / in.strideL
		lent := (i % in.strideL) / in.strideD
		dead := (i % in.strideD) / in.strideC
		c := i % 2
		marked := min(in.curShare, f)
		total := marked
		for _, s := range in.peerShares {
			total += min(s, f)
		}
		hi := min(marked, f)
		for k := 0; k <= hi; k++ {
			ph := numeric.HypergeomPMF(k, marked, total, f)
			if ph == 0 {
				continue
			}
			arem := f - k + lent
			acc[k*strideA+arem*strideD+dead*strideC+c] += w * ph
		}
	}
	out := in.entryScratch[:0]
	total := 0.0
	for i, w := range acc {
		if w <= in.prune {
			continue
		}
		out = append(out, allocEntry{
			aloc: i / strideA,
			arem: (i % strideA) / strideD,
			dead: (i % strideD) / strideC,
			cong: i%2 == 1,
			p:    w,
		})
		total += w
	}
	in.entryScratch = out
	if len(out) == 0 || total == 0 {
		return pointMass
	}
	for i := range out {
		out[i].p /= total
	}
	return in.persist(out)
}

// steadyStart is the startGroup of a transient that starts from the
// previous level's unconditioned steady state.
const steadyStart = -1

// startGroup picks the transient start for conditioning group g: the
// previous level's steady state restricted to the states whose total
// shared usage equals g (falling back to the nearest non-empty total) and
// renormalized — the pi^X construction of the paper applied to the
// observable aggregate. It returns the group picked, or steadyStart when
// every group is empty or under the uncondition ablation. On SolveAll
// readout levels the expected self-lending shiftLent is added back first —
// floored, because conditioning feeds the lend dynamics back into the
// aggregate and rounding the bias up overdrives that loop — since the
// caller's aggregate excludes the readout SC's own borrowing while the
// groups do not.
func (in *interactions) startGroup(g int) int {
	if in.uncondition {
		return steadyStart
	}
	groups := in.prev.groups
	g = min(max(g+int(in.shiftLent), 0), len(groups)-1)
	if in.groupMass(g) > groupMassEps {
		return g
	}
	for d := 1; d < len(groups); d++ {
		if in.groupMass(g-d) > groupMassEps {
			return g - d
		}
		if in.groupMass(g+d) > groupMassEps {
			return g + d
		}
	}
	return steadyStart
}

// groupMass is the previous level's steady-state mass on group g, 0 out of
// range.
func (in *interactions) groupMass(g int) float64 {
	prev := in.prev
	if g < 0 || g >= len(prev.groups) {
		return 0
	}
	mass := 0.0
	for _, idx := range prev.groups[g] {
		mass += prev.steady[idx]
	}
	return mass
}

// startInto writes the transient start distribution picked by startGroup
// into dst (dimensioned to the previous level's state space).
func (in *interactions) startInto(dst []float64, start int) {
	prev := in.prev
	if start == steadyStart {
		copy(dst, prev.steady)
		return
	}
	mass := in.groupMass(start)
	for i := range dst {
		dst[i] = 0
	}
	for _, idx := range prev.groups[start] {
		dst[idx] = prev.steady[idx] / mass
	}
}

// clamp projects an unclamped vector onto the legal region of the current
// state (non-negative caps), merging atoms that collide after clamping, and
// appends the result to out.
func (in *interactions) clamp(out, base []allocEntry, capAloc, capArem int) []allocEntry {
	maxDead := in.prev.share
	strideC := 2
	strideD := strideC * (maxDead + 1)
	strideA := strideD * (capArem + 1)
	dim := strideA * (capAloc + 1)
	if in.scratchDim < dim {
		in.scratch = make([]float64, dim)
		in.scratchDim = dim
	}
	buf := in.scratch[:dim]
	for i := range buf {
		buf[i] = 0
	}
	for _, e := range base {
		aloc := min(e.aloc, capAloc)
		arem := min(e.arem, capArem)
		c := 0
		if e.cong {
			c = 1
		}
		buf[aloc*strideA+arem*strideD+e.dead*strideC+c] += e.p
	}
	for i, w := range buf {
		if w == 0 {
			continue
		}
		out = append(out, allocEntry{
			aloc: i / strideA,
			arem: (i % strideA) / strideD,
			dead: (i % strideD) / strideC,
			cong: i%2 == 1,
			p:    w,
		})
	}
	return out
}
