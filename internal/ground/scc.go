package ground

import "sync"

// Condensation of the ground program's atom dependency graph.
//
// The dependency graph has one node per atom and, for every rule, an edge
// from the head to each body atom (positive and negative alike): the head
// depends on its body. Tarjan's algorithm condenses it into strongly
// connected components; because Tarjan emits a component only after every
// component reachable from it, the emission order lists dependencies
// before dependents, so component IDs are already a bottom-up evaluation
// order (the splitting-theorem order SolveModular and IncrementalModel
// rely on).
//
// A component with no internal negative edge cannot lie on a negation
// cycle — a negative edge inside an SCC is on a cycle by definition — so
// its well-founded truths follow from the boundary values in a single
// definite/possible least-fixpoint pair (see solveCheap). Only components
// with an internal negative edge ("hard" components) need a genuine WFS
// fixpoint.
//
// All grouped data (a component's atoms and rules, a component's
// dependents) is stored in CSR form — one flat pointer-free int32 array
// plus offsets, read through the *Of accessors — rather than as slices
// of slices: a condensation is rebuilt per
// regrounding (every delta), and tens of thousands of slice headers are
// exactly the allocation and GC-scan load the arena-backed grounding
// paths were built to avoid.
type Condensation struct {
	// Comp maps each atom to its component; components are numbered in
	// topological order, dependencies first.
	Comp []int32
	// PosInComp maps each atom to its position within AtomsOf(Comp[a]):
	// the dense local index the modular solver grounds subprograms with.
	PosInComp []int32
	// NegCycle marks components with an internal negative edge (a rule
	// whose head and some negative body atom share the component).
	NegCycle []bool
	// LargestComp is the size (in atoms) of the largest component.
	LargestComp int
	// NumHard counts components with NegCycle set.
	NumHard int

	atomOff, atomList []int32 // AtomsOf: component → its atoms
	ruleOff, ruleList []int32 // RulesOf: component → rules headed in it
	depOff, depList   []int32 // DependentsOf: component → distinct dependents
}

// NumComps returns the number of components.
func (c *Condensation) NumComps() int { return len(c.atomOff) - 1 }

// CompSize returns the number of atoms in component ci.
func (c *Condensation) CompSize(ci int32) int {
	return int(c.atomOff[ci+1] - c.atomOff[ci])
}

// AtomsOf lists component ci's atoms, indexed by PosInComp.
func (c *Condensation) AtomsOf(ci int32) []int32 {
	return c.atomList[c.atomOff[ci]:c.atomOff[ci+1]]
}

// RulesOf lists the rules whose head lies in component ci.
func (c *Condensation) RulesOf(ci int32) []int32 {
	return c.ruleList[c.ruleOff[ci]:c.ruleOff[ci+1]]
}

// DependentsOf lists the components depending on ci — the forward edges
// IncrementalModel closes affected seeds through. In a full condensation
// the list is deduplicated and sorted; in a closure-only one
// (Program.closureCondensation) it may repeat a dependent once per
// dependency edge, which the marking BFS consumer absorbs for free.
func (c *Condensation) DependentsOf(ci int32) []int32 {
	return c.depList[c.depOff[ci]:c.depOff[ci+1]]
}

// prefixCSR turns per-key counts (in place) into CSR start offsets: on
// return counts[k] is the start offset of key k (usable as the fill
// cursor) and off[k]/off[k+1] bound key k's range. off must have
// len(counts)+1 entries.
func prefixCSR(counts, off []int32) {
	sum := int32(0)
	for k, c := range counts {
		off[k] = sum
		counts[k] = sum
		sum += c
	}
	off[len(counts)] = sum
}

// condScratch is the transient working memory of one Condense call —
// adjacency, Tarjan state, and the dependent-edge buffer — recycled
// through a pool so per-regrounding condensations allocate (and zero)
// only what they retain.
type condScratch struct {
	buf     []int32
	onstack Bits
}

var condScratchPool = sync.Pool{New: func() any { return &condScratch{} }}

// Condense builds the full condensation of p's atom dependency graph. It
// is a pure function of the program; Program.Condensation caches it.
func Condense(p *Program) *Condensation { return condense(p, true) }

// condense builds a condensation. full selects everything the modular
// solver consumes; !full builds only what the incremental closure needs —
// Comp, component sizes, and (possibly duplicated) dependent edges —
// skipping the atom/rule grouping scatters, which roughly halves the
// per-delta cost.
//
// A condensation is rebuilt for every regrounding — each applied delta —
// so construction is allocation-lean: all transient working memory comes
// from a pooled arena, the retained arrays are carved out of one exactly
// bounded arena, and the dependent edges recorded during the counting
// sweep are scattered from a buffer instead of re-scanning the rules.
func condense(p *Program, full bool) *Condensation {
	n := p.NumAtoms()
	if n == 0 {
		z := []int32{0}
		return &Condensation{atomOff: z, ruleOff: z, depOff: z}
	}
	nr := len(p.Rules)
	ne := 0
	for ri := range p.Rules {
		ne += len(p.Rules[ri].Pos) + len(p.Rules[ri].Neg)
	}
	// Retained arena (worst-case bounds: ncomp ≤ n, dependent edges ≤ ne).
	arenaSize := 6*n + nr + ne + 3
	if !full {
		arenaSize = 3*n + ne + 3 // Comp, atomOff, depOff, depList
	}
	arena := make([]int32, arenaSize)
	take := func(k int) []int32 {
		s := arena[:k:k]
		arena = arena[k:]
		return s
	}
	// Pooled scratch: deg, adj, Tarjan state, dependent-edge buffers.
	sc := condScratchPool.Get().(*condScratch)
	defer condScratchPool.Put(sc)
	if need := 7*n + 1 + 3*ne; cap(sc.buf) < need {
		sc.buf = make([]int32, need)
	}
	stake := func(k int) []int32 {
		s := sc.buf[:k:k]
		sc.buf = sc.buf[k:]
		return s
	}
	bufAll := sc.buf
	defer func() { sc.buf = bufAll }()

	c := &Condensation{Comp: take(n)}
	if full {
		c.PosInComp = take(n)
	}
	deg := stake(n + 1) // CSR adjacency offsets, head → body; deg[a] = start of a
	adj := stake(ne)
	cnt0 := stake(n)
	{
		cnt := cnt0
		for i := range cnt {
			cnt[i] = 0
		}
		for ri := range p.Rules {
			r := &p.Rules[ri]
			cnt[r.Head] += int32(len(r.Pos) + len(r.Neg))
		}
		prefixCSR(cnt, deg)
		for ri := range p.Rules {
			r := &p.Rules[ri]
			h := r.Head
			for _, b := range r.Pos {
				adj[cnt[h]] = b
				cnt[h]++
			}
			for _, b := range r.Neg {
				adj[cnt[h]] = b
				cnt[h]++
			}
		}
	}

	// Iterative Tarjan. index holds 1-based visit numbers (0 = unvisited,
	// so the recycled scratch must be re-zeroed); the DFS spine lives in
	// parallel vStack/eiStack arrays.
	index := stake(n)
	for i := range index {
		index[i] = 0
	}
	low := stake(n)
	stack := stake(n)[:0]
	vStack := stake(n)[:0]
	eiStack := stake(n)[:0]
	if sc.onstack == nil || len(sc.onstack) < (n+63)/64 {
		sc.onstack = NewBits(n)
	} else {
		sc.onstack.Reset()
	}
	onstack := sc.onstack
	next := int32(1)
	ncomp := int32(0)
	for s := 0; s < n; s++ {
		if index[s] != 0 {
			continue
		}
		v0 := int32(s)
		index[v0], low[v0] = next, next
		next++
		stack = append(stack, v0)
		onstack.Set(v0)
		vStack = append(vStack, v0)
		eiStack = append(eiStack, deg[v0])
		for len(vStack) > 0 {
			v := vStack[len(vStack)-1]
			if ei := eiStack[len(eiStack)-1]; ei < deg[v+1] {
				w := adj[ei]
				eiStack[len(eiStack)-1]++
				if index[w] == 0 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onstack.Set(w)
					vStack = append(vStack, w)
					eiStack = append(eiStack, deg[w])
				} else if onstack.Get(w) && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			vStack = vStack[:len(vStack)-1]
			eiStack = eiStack[:len(eiStack)-1]
			if len(vStack) > 0 {
				if pv := vStack[len(vStack)-1]; low[v] < low[pv] {
					low[pv] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onstack.Clear(w)
					c.Comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}

	// Group atoms by component (CSR). Both modes need the component sizes
	// (the incremental closure sizes its affected set by them); only the
	// full build scatters the atom list and positions. low is dead after
	// Tarjan; reuse it as the counts-then-cursor scratch.
	cnt := low[:ncomp]
	for i := range cnt {
		cnt[i] = 0
	}
	for a := 0; a < n; a++ {
		cnt[c.Comp[a]]++
	}
	c.atomOff = take(int(ncomp) + 1)
	if full {
		c.atomList = take(n)
		prefixCSR(cnt, c.atomOff)
		for a := int32(0); int(a) < n; a++ {
			ci := c.Comp[a]
			c.PosInComp[a] = cnt[ci] - c.atomOff[ci]
			c.atomList[cnt[ci]] = a
			cnt[ci]++
		}
	} else {
		prefixCSR(cnt, c.atomOff)
	}
	for ci := int32(0); ci < ncomp; ci++ {
		if sz := c.CompSize(ci); sz > c.LargestComp {
			c.LargestComp = sz
		}
	}

	if !full {
		// Closure-only build: dependent edges in natural rule order,
		// duplicates allowed (the marking BFS dedups for free) — no rule
		// grouping. Negation cycles are still
		// detected (the sweep walks every body atom anyway), so merged
		// incremental models can report the condensation shape.
		c.NegCycle = make([]bool, ncomp)
		depCnt := cnt
		for i := range depCnt {
			depCnt[i] = 0
		}
		depSrc := stake(ne)[:0]
		depDst := stake(ne)[:0]
		for ri := range p.Rules {
			r := &p.Rules[ri]
			ci := c.Comp[r.Head]
			for _, b := range r.Pos {
				if d := c.Comp[b]; d != ci {
					depCnt[d]++
					depSrc = append(depSrc, d)
					depDst = append(depDst, ci)
				}
			}
			for _, b := range r.Neg {
				if d := c.Comp[b]; d != ci {
					depCnt[d]++
					depSrc = append(depSrc, d)
					depDst = append(depDst, ci)
				} else if !c.NegCycle[ci] {
					c.NegCycle[ci] = true
					c.NumHard++
				}
			}
		}
		c.depOff = take(int(ncomp) + 1)
		c.depList = take(len(depSrc))
		prefixCSR(depCnt, c.depOff)
		for k, d := range depSrc {
			c.depList[depCnt[d]] = depDst[k]
			depCnt[d]++
		}
		return c
	}

	// Group rules by head component.
	for i := range cnt {
		cnt[i] = 0
	}
	for ri := range p.Rules {
		cnt[c.Comp[p.Rules[ri].Head]]++
	}
	c.ruleOff = take(int(ncomp) + 1)
	c.ruleList = take(nr)
	prefixCSR(cnt, c.ruleOff)
	for ri := range p.Rules {
		ci := c.Comp[p.Rules[ri].Head]
		c.ruleList[cnt[ci]] = int32(ri)
		cnt[ci]++
	}

	// Negative cycles and deduplicated dependent edges in one sweep over
	// the rules grouped by head component. Components are visited in
	// increasing order, so lastDep-based dedup is exact: lastDep[d] can
	// only equal ci while ci's own rules scan. The discovered (dependency,
	// dependent) edges are buffered and scattered afterwards instead of
	// re-scanning the rules.
	c.NegCycle = make([]bool, ncomp)
	depCnt := cnt // dead again; reuse
	for i := range depCnt {
		depCnt[i] = 0
	}
	lastDep := index[:ncomp] // dead after Tarjan; reuse
	for i := range lastDep {
		lastDep[i] = -1
	}
	depSrc := stake(ne)[:0]
	depDst := stake(ne)[:0]
	for ci := int32(0); ci < ncomp; ci++ {
		dep := func(d int32) {
			if lastDep[d] != ci {
				lastDep[d] = ci
				depCnt[d]++
				depSrc = append(depSrc, d)
				depDst = append(depDst, ci)
			}
		}
		for _, ri := range c.RulesOf(ci) {
			r := &p.Rules[ri]
			for _, b := range r.Pos {
				if d := c.Comp[b]; d != ci {
					dep(d)
				}
			}
			for _, b := range r.Neg {
				if d := c.Comp[b]; d != ci {
					dep(d)
				} else {
					c.NegCycle[ci] = true
				}
			}
		}
		if c.NegCycle[ci] {
			c.NumHard++
		}
	}
	// Scatter the buffered (dependency, dependent) edges: edges were
	// discovered with the dependent ci increasing, so each component's
	// DependentsOf list comes out sorted.
	c.depOff = take(int(ncomp) + 1)
	c.depList = take(len(depSrc))
	prefixCSR(depCnt, c.depOff)
	for k, d := range depSrc {
		c.depList[depCnt[d]] = depDst[k]
		depCnt[d]++
	}
	return c
}
