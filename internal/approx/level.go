package approx

import (
	"fmt"
	"math"

	"scshare/internal/cloud"
	"scshare/internal/markov"
	"scshare/internal/queueing"
)

// level is one chain M^i of the hierarchy. Levels live inside levelSlot
// arenas and are recycled across builds via reset; every field is either
// rebuilt or fully overwritten per build.
type level struct {
	sc    cloud.SC
	share int // S_i of this level's SC
	pool  int // B_i = sum of the other SCs' shares (declared pool)
	// poolDim truncates the modeled (o, a) grid: shared-VM usage beyond it
	// has negligible probability (it is sized from the federation's
	// overflow demand), so states above it are not enumerated and the pool
	// is treated as exhausted there.
	poolDim int
	qmax    int

	// Compact state indexing: idx = (q*(share+1) + s)*nOA + oaIdx[o][a].
	nOA    int
	oaIdx  [][]int
	oaList [][2]int

	chain   *markov.CTMC
	uniform *markov.DTMC // uniformized chain reused by interaction iterates
	gamma   float64      // uniformization rate of uniform
	steady  []float64
	// demandDriven marks a predecessor-less level whose s dimension tracks
	// lending to successors (the feedback refinement); such lending must
	// not be re-exported to the next level as predecessor usage.
	demandDriven bool

	// Per-state summaries consumed by the next level.
	foreign []int  // F(y) = o+a: usage of the pool excluding this SC
	lent    []int  // P(y) = s: this SC's VMs serving predecessors
	cong    []bool // does this SC have waiting requests?
	dead    []int  // share headroom this SC cannot actually lend (no idle VM)

	// groups[g] lists states with total shared usage s+o+a == g.
	groups [][]int

	// forward is the per-state probability that an arrival at this SC is
	// forwarded to the public cloud, accumulated during assembly.
	forward []float64

	// pnf tabulates pNoForward for the build: pnf[(q+o)*pnfStride + v-vMin]
	// with vMin = VMs - share.
	pnf       []float64
	pnfStride int
}

// numStates returns the size of this level's state space.
func (lv *level) numStates() int { return (lv.qmax + 1) * (lv.share + 1) * lv.nOA }

func (lv *level) index(q, s, oa int) int {
	return (q*(lv.share+1)+s)*lv.nOA + oa
}

func (lv *level) decode(idx int) (q, s, o, a int) {
	oa := idx % lv.nOA
	rest := idx / lv.nOA
	s = rest % (lv.share + 1)
	q = rest / (lv.share + 1)
	return q, s, lv.oaList[oa][0], lv.oaList[oa][1]
}

// queueCap picks the truncation level for q: beyond it the admission
// probability has decayed to numerical zero even with every shared VM
// assisting the SC.
func queueCap(sc cloud.SC, pool int) int {
	m := float64(sc.VMs+pool) * sc.ServiceRate * sc.SLA
	return sc.VMs + int(math.Ceil(m+6*math.Sqrt(m))) + 4
}

// reset re-dimensions the level scaffolding in place. poolDim <= pool
// bounds the modeled shared-VM usage; the (o, a) index grid is rebuilt only
// when that bound actually changes.
func (lv *level) reset(sc cloud.SC, share, pool, poolDim, qcap int) {
	if poolDim <= 0 || poolDim > pool {
		poolDim = pool
	}
	if qcap <= 0 {
		qcap = queueCap(sc, poolDim)
	}
	sameGrid := lv.oaIdx != nil && lv.poolDim == poolDim
	lv.sc, lv.share, lv.pool, lv.poolDim, lv.qmax = sc, share, pool, poolDim, qcap
	if sameGrid {
		return
	}
	if cap(lv.oaIdx) < poolDim+1 {
		lv.oaIdx = make([][]int, poolDim+1)
	}
	lv.oaIdx = lv.oaIdx[:poolDim+1]
	lv.oaList = lv.oaList[:0]
	for o := 0; o <= poolDim; o++ {
		row := growInts(lv.oaIdx[o], poolDim+1)
		lv.oaIdx[o] = row
		for a := 0; a <= poolDim; a++ {
			row[a] = -1
			if o+a <= poolDim {
				row[a] = len(lv.oaList)
				lv.oaList = append(lv.oaList, [2]int{o, a})
			}
		}
	}
	lv.nOA = len(lv.oaList)
}

// pNoForward is the SLA admission probability for an arrival at this SC
// when it commands V = N - s + o servers and has q + o requests in its
// system (the excess q - (N - s) is exactly the q' of the paper's
// performance-parameter formulas). It reads the table tabulatePNoForward
// filled.
func (lv *level) pNoForward(q, s, o int) float64 {
	return lv.pnf[(q+o)*lv.pnfStride+lv.share-s+o]
}

// tabulatePNoForward fills the pNoForward table for every q+o <=
// qmax+poolDim and every V in [VMs-share, VMs+poolDim], the range the
// level's states and clamped allocations (s <= share) reach.
func (lv *level) tabulatePNoForward() {
	lv.pnfStride = lv.share + lv.poolDim + 1
	lv.pnf = growFloats(lv.pnf, (lv.qmax+lv.poolDim+1)*lv.pnfStride)
	vMin := lv.sc.VMs - lv.share
	for n := 0; n <= lv.qmax+lv.poolDim; n++ {
		row := lv.pnf[n*lv.pnfStride : (n+1)*lv.pnfStride]
		for i := range row {
			row[i] = queueing.PNoForward(n, vMin+i, lv.sc.ServiceRate, lv.sc.SLA)
		}
	}
}

// build assembles the generator of the slot's level from the predecessor
// interactions and solves for the steady state, entirely in the slot's
// arenas: the builder is Reset, the chain Rebuilt in place, and the solve
// runs through the slot's workspace into the level's steady buffer. For the
// first level (no predecessors) demand > 0 adds an explicit
// successor-demand process: idle shareable VMs are acquired at rate demand
// and released at the service rate — the feedback refinement described in
// the package documentation.
func (sl *levelSlot) build(demand float64, opts markov.SteadyStateOptions) error {
	lv, inter := &sl.lv, &sl.inter
	n := lv.numStates()
	bl := sl.bl
	bl.Reset(n)
	lv.forward = growFloats(lv.forward, n)
	for i := range lv.forward {
		lv.forward[i] = 0
	}
	lv.demandDriven = inter.prev == nil && demand > 0
	lv.tabulatePNoForward()
	sl.trans = growFloats(sl.trans, n)
	clear(sl.trans)
	lambda, mu := lv.sc.ArrivalRate, lv.sc.ServiceRate
	// States are visited with q innermost, idx = q*nRest + rest, so
	// consecutive states differ only in q and the alloc memos hit. The
	// generator does not depend on the visiting order: each state's row has
	// unique columns, and the builder orders entries by (row, column).
	nRest := (lv.share + 1) * lv.nOA
	for rest := 0; rest < nRest; rest++ {
		s := rest / lv.nOA
		oa := lv.oaList[rest%lv.nOA]
		o, a := oa[0], oa[1]
		for q := 0; q <= lv.qmax; q++ {
			idx := q*nRest + rest
			// Predecessor allocations can never exceed the VMs this SC's
			// own in-service requests leave free.
			capAloc := lv.share
			if free := lv.sc.VMs - min(q, lv.sc.VMs-s); free < capAloc {
				capAloc = free
			}

			// Successor-demand process (first level under feedback only).
			if inter.prev == nil && demand > 0 {
				if s < lv.share && q+s < lv.sc.VMs {
					sl.add(lv.index(q, s+1, lv.oaIdx[o][a]), demand)
				}
				if s > 0 {
					sl.add(lv.index(q, s-1, lv.oaIdx[o][a]), float64(s)*mu)
				}
			}

			// Arrival event (C1-C3).
			arr := inter.alloc(evArrival, s, a, 1/lambda, capAloc, lv.poolDim-o)
			for _, e := range arr {
				switch {
				case q+e.aloc < lv.sc.VMs: // C1: local idle VM
					sl.add(lv.index(q+1, e.aloc, lv.oaIdx[o][e.arem]), lambda*e.p)
				case o+e.arem < min(lv.pool-e.dead, lv.poolDim): // C2: borrow a shared VM
					sl.add(lv.index(q, e.aloc, lv.oaIdx[o+1][e.arem]), lambda*e.p)
				default: // C3: queue with P^NF, else forward
					pq := lv.pNoForward(q, e.aloc, o)
					if q >= lv.qmax {
						pq = 0 // truncated: treat as certain forwarding
					}
					if pq > 0 {
						sl.add(lv.index(q+1, e.aloc, lv.oaIdx[o][e.arem]), lambda*e.p*pq)
					}
					lv.forward[idx] += e.p * (1 - pq)
				}
			}

			// Local departure event (C4).
			if l := min(q, lv.sc.VMs-s); l > 0 {
				rate := float64(l) * mu
				dep := inter.alloc(evLocalDeparture, s, a, 1/rate, capAloc, lv.poolDim-o)
				for _, e := range dep {
					switch {
					case q-1+e.aloc >= lv.sc.VMs: // own queue absorbs the VM
						sl.add(lv.index(q-1, e.aloc, lv.oaIdx[o][e.arem]), rate*e.p)
					case e.cong && e.aloc < capAloc: // lend to waiting predecessors
						sl.add(lv.index(q-1, e.aloc+1, lv.oaIdx[o][e.arem]), rate*e.p)
					default:
						sl.add(lv.index(q-1, e.aloc, lv.oaIdx[o][e.arem]), rate*e.p)
					}
				}
			}

			// Remote departure event (C5).
			if o > 0 {
				rate := float64(o) * mu
				dep := inter.alloc(evRemoteDeparture, s, a, 1/rate, capAloc, lv.poolDim-(o-1))
				for _, e := range dep {
					switch {
					case e.cong && o-1+e.arem+1 <= lv.poolDim: // predecessors take it
						sl.add(lv.index(q, e.aloc, lv.oaIdx[o-1][e.arem+1]), rate*e.p)
					case q+e.aloc > lv.sc.VMs: // own queue keeps the VM busy
						sl.add(lv.index(q-1, e.aloc, lv.oaIdx[o][e.arem]), rate*e.p)
					default: // returned to its owner
						sl.add(lv.index(q, e.aloc, lv.oaIdx[o-1][e.arem]), rate*e.p)
					}
				}
			}

			sl.flush(idx)
		}
	}
	chain, err := bl.Rebuild(lv.chain)
	if err != nil {
		return fmt.Errorf("approx: level for %s: %w", lv.sc.Name, err)
	}
	lv.chain = chain
	lv.uniform, lv.gamma = chain.UniformizedUnit()
	pi, err := chain.SteadyStateGaussSeidel(opts)
	if err != nil {
		// Power iteration is slower but more robust; fall back.
		pi, err = chain.SteadyState(opts)
		if err != nil {
			return fmt.Errorf("approx: level for %s: %w", lv.sc.Name, err)
		}
	}
	lv.steady = pi
	lv.summarize()
	return nil
}

// summarize precomputes the per-state quantities consumed by the next
// level's interaction computation, reusing the level's summary buffers.
func (lv *level) summarize() {
	n := lv.numStates()
	lv.foreign = growInts(lv.foreign, n)
	lv.lent = growInts(lv.lent, n)
	lv.dead = growInts(lv.dead, n)
	if cap(lv.cong) < n {
		lv.cong = make([]bool, n)
	}
	lv.cong = lv.cong[:n]
	ng := lv.share + lv.poolDim + 1
	if cap(lv.groups) < ng {
		g2 := make([][]int, ng)
		copy(g2, lv.groups[:cap(lv.groups)])
		lv.groups = g2
	}
	lv.groups = lv.groups[:ng]
	for g := range lv.groups {
		lv.groups[g] = lv.groups[g][:0]
	}
	for idx := 0; idx < n; idx++ {
		q, s, o, a := lv.decode(idx)
		lv.foreign[idx] = o + a
		lv.lent[idx] = s
		if lv.demandDriven {
			// s serves successors, not predecessors: it is invisible to
			// the next level's a_rem but still occupies real VMs (dead).
			lv.lent[idx] = 0
		}
		lv.cong[idx] = q > lv.sc.VMs-s
		// Share headroom this SC advertises but cannot back with an idle
		// VM right now; the next level subtracts it from the borrowable
		// pool (lender-availability refinement, see package doc).
		lv.dead[idx] = 0
		headroom := lv.share - s
		idle := lv.sc.VMs - q - s
		if idle < 0 {
			idle = 0
		}
		if idle < headroom {
			lv.dead[idx] = headroom - idle
		}
		g := lv.lent[idx] + o + a
		lv.groups[g] = append(lv.groups[g], idx)
	}
}

// metrics evaluates the paper's performance parameters on this level's
// steady state.
func (lv *level) metrics() cloud.Metrics {
	var lend, borrow, busy, fwd float64
	for idx, p := range lv.steady {
		if p == 0 {
			continue
		}
		q, s, o, _ := lv.decode(idx)
		lend += p * float64(s)
		borrow += p * float64(o)
		busy += p * float64(min(q, lv.sc.VMs-s)+s)
		fwd += p * lv.forward[idx]
	}
	return cloud.Metrics{
		PublicRate:  lv.sc.ArrivalRate * fwd,
		BorrowRate:  borrow,
		LendRate:    lend,
		Utilization: busy / float64(lv.sc.VMs),
		ForwardProb: fwd,
	}
}
