// Package core implements the paper's primary contribution: the standard
// well-founded semantics for guarded normal Datalog± under the unique name
// assumption (Definition 3), decidable NBCQ answering over it (§4), the
// goal-directed membership check WCHECK, and the Proposition 12 depth
// bound δ.
//
// The evaluation pipeline is: bounded guarded chase of P+ = (D ∪ Σf)+
// (package chase) → finite ground normal program (package ground) → one of
// four WFS fixpoint algorithms → three-valued model over the derived
// universe, with every atom outside the universe false (it has no forward
// proof within the bound, Definition 5). Proposition 12 guarantees a finite
// sufficient depth n·δ for NBCQ answering; because δ is astronomically
// large, queries are answered by adaptive deepening with a stabilization
// window (AdaptiveAnswer), and exactness is reported whenever the chase
// saturates below the bound (in which case the computed model is the
// genuine well-founded model restricted to the relevant atoms).
//
// Each pipeline step is one pure function — Evaluate (fresh build),
// ExtendModel (deeper), RebaseModel (mutated database), AdaptiveAnswer
// (the ladder) — taking a trailing cancellation token and trace span.
// Both are nil-safe: nil means never cancelled and not traced, at the
// cost of a nil check per poll or span site.
package core

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/atom"
	"repro/internal/cancel"
	"repro/internal/chase"
	"repro/internal/delta"
	"repro/internal/ground"
	"repro/internal/program"
	"repro/internal/trace"
)

// ErrBudgetExceeded is the structured error answer-shaped paths return
// when the MaxAtoms safety valve truncated the chase: the answer cannot
// be computed under the configured budget. Introspection paths (Stats,
// TrueFacts, constraint checks) keep serving the truncated model — the
// partial universe is still a sound lower approximation — so the error
// is raised by the adaptive ladder, not by evaluation itself. The root
// wfs package re-exports the type; match with errors.As.
type ErrBudgetExceeded = chase.BudgetError

// Algorithm selects which of the four equivalent WFS fixpoint algorithms
// evaluates the ground program.
type Algorithm int

const (
	// AltFixpoint is the van Gelder alternating fixpoint (default,
	// fastest).
	AltFixpoint Algorithm = iota
	// UnfoundedSets iterates WP = TP ∪ ¬.UP literally (§2.6).
	UnfoundedSets
	// ForwardProofs iterates the ŴP operator of Definition 7.
	ForwardProofs
	// Remainder computes the Brass–Dix program remainder (residual
	// program) — a fourth independent algorithm used for cross-checking.
	Remainder
)

func (a Algorithm) String() string {
	switch a {
	case AltFixpoint:
		return "alternating-fixpoint"
	case UnfoundedSets:
		return "unfounded-sets"
	case ForwardProofs:
		return "forward-proofs"
	case Remainder:
		return "remainder"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configure evaluation. The zero value selects defaults.
type Options struct {
	// Depth is the chase depth for Evaluate; 0 means DefaultDepth.
	Depth int
	// MaxAtoms caps the chase universe (safety valve); 0 means a large
	// default.
	MaxAtoms int
	// Algorithm selects the WFS fixpoint algorithm.
	Algorithm Algorithm

	// Adaptive deepening (used by Answer): start depth, additive step,
	// number of consecutive agreeing depths required, and the depth
	// ceiling. Zero values select 4 / 2 / 2 / 24.
	AdaptiveStart   int
	AdaptiveStep    int
	StabilityWindow int
	MaxDepth        int

	// GuardBand keeps query matching away from the chase frontier: when
	// the chase did NOT saturate, homomorphisms may only use atoms of
	// depth ≤ depth−GuardBand, since atoms at the frontier can lack
	// children whose absence flips truth values (the locality issue that
	// Lemmas 10/11 handle; see DESIGN.md §2). Zero selects 2. Ignored
	// for exact (saturated) models.
	GuardBand int

	// CertifiedDepth, when positive, is a statically proven chase depth
	// bound for the loaded program (analysis.Certify): every derivable
	// atom has depth ≤ CertifiedDepth and the bounded chase run there is
	// complete. When the certified bound fits under the resolved MaxDepth
	// ceiling, withDefaults collapses the adaptive ladder to the single
	// certified rung (AdaptiveStart = MaxDepth = Depth = CertifiedDepth)
	// and models evaluated at that depth are exact — no guard band, no
	// deepening. A bound above MaxDepth leaves the heuristic schedule
	// untouched: MaxDepth stays a resource ceiling.
	CertifiedDepth int
	// NoCertify tells load paths to skip certification entirely (keep the
	// heuristic ladder even for provably bounded programs). Consumed by
	// wfs.LoadWithOptions; evaluation itself only reads CertifiedDepth.
	NoCertify bool
}

// DefaultDepth is the chase depth used by Evaluate when unset.
const DefaultDepth = 8

// WithDefaults resolves zero-valued fields to their defaults. Callers that
// derive evaluation schedules from options (the snapshot layer's adaptive
// ladder) use it to see the same values evaluation resolves.
func (o Options) WithDefaults() Options { return o.withDefaults() }

// Validate reports option combinations that cannot answer queries. The
// one way to build such a configuration is an adaptive-deepening schedule
// that is empty after defaults resolve — AdaptiveStart (explicit, or
// GuardBand+2 by default) above MaxDepth, e.g. Options{GuardBand: 30}
// with the default MaxDepth 24. Without this check the deepening loop
// never executes and every query silently answers False with an empty
// trace. Load-time callers (wfs.LoadWithOptions) and AdaptiveAnswer both
// check it.
func (o Options) Validate() error {
	r := o.withDefaults()
	if r.AdaptiveStart > r.MaxDepth {
		return fmt.Errorf(
			"core: empty adaptive-deepening schedule: resolved AdaptiveStart %d exceeds MaxDepth %d (GuardBand %d) — raise MaxDepth or lower AdaptiveStart/GuardBand",
			r.AdaptiveStart, r.MaxDepth, r.GuardBand)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Depth <= 0 {
		o.Depth = DefaultDepth
	}
	if o.MaxAtoms <= 0 {
		o.MaxAtoms = 4_000_000
	}
	if o.GuardBand <= 0 {
		o.GuardBand = 2
	}
	if o.AdaptiveStart <= 0 {
		o.AdaptiveStart = o.GuardBand + 2
	}
	if o.AdaptiveStep <= 0 {
		o.AdaptiveStep = 2
	}
	if o.StabilityWindow <= 0 {
		o.StabilityWindow = 2
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 24
	}
	if o.CertifiedDepth > 0 && o.CertifiedDepth <= o.MaxDepth {
		// A certified bound within the resource ceiling collapses the
		// schedule to one exact rung; see Options.CertifiedDepth.
		o.AdaptiveStart = o.CertifiedDepth
		o.MaxDepth = o.CertifiedDepth
		o.Depth = o.CertifiedDepth
	}
	return o
}

// Model is the (bounded) well-founded model WFS(D, Σ): a three-valued
// interpretation over the derived universe, with everything outside false.
type Model struct {
	Chase *chase.Result
	GP    *ground.Program
	GM    *ground.Model
	// Exact reports that the chase saturated strictly below its depth
	// bound without truncation, so this model is the true well-founded
	// model on all atoms (no deeper chase can change anything).
	Exact bool
	// UsableDepth bounds the atoms query matching may use (see
	// Options.GuardBand); negative when everything is usable.
	UsableDepth int
	// Interrupted reports that a cancellation token stopped the chase or
	// the solve mid-way: the model is a discardable partial state, never
	// cached and never answered from (the ladder converts it to the
	// token's cause as an error).
	Interrupted bool

	truePerPred map[atom.PredID][]atom.AtomID // lazy index for joins
	posPerPred  map[atom.PredID][]atom.AtomID // true ∪ undefined

	ranksOnce sync.Once // guards PrepareExplanations (models may be shared across snapshots)
	ranks     []int32   // lazy: derivation ranks for Explain
	support   []int32   // lazy: supporting instance per true atom
}

// Evaluate computes the model at chase depth depth from scratch: the
// bounded chase of db under prog, its grounding, and the configured
// fixpoint. depth <= 0 selects the configured opts.Depth. The chase,
// grounding, condensation, and solve become child spans of tr, with chase
// shape counters (see chaseCounters). tok (nil = never cancelled) is
// polled by the chase and the solve; an interrupted evaluation returns a
// discardable Model with Interrupted set. tr and tok may each be nil.
func Evaluate(prog *program.Program, db program.Database, opts Options, depth int, tok *cancel.Token, tr *trace.Span) *Model {
	opts = opts.withDefaults()
	if depth <= 0 {
		depth = opts.Depth
	}
	cs := tr.Child("chase")
	res := chase.Run(prog, db, chase.Options{MaxDepth: depth, MaxAtoms: opts.MaxAtoms, Cancel: tok})
	chaseCounters(cs, res)
	cs.End()
	if res.Interrupted {
		return &Model{Chase: res, GP: ground.New(0, nil), GM: &ground.Model{}, Interrupted: true}
	}
	end := tr.Phase("ground")
	gp := ground.FromChase(res)
	end()
	return wrapModel(opts, res, gp, solverFor(opts, tok, tr)(gp), depth)
}

// chaseCounters records a finished chase's shape on its span: universe
// size, fired instances, parked (unfirable) rule applications, and the
// deepest derived atom; a Detailed trace additionally gets the full
// per-depth frontier profile as counters on a frontier child.
func chaseCounters(tr *trace.Span, res *chase.Result) {
	if !tr.Enabled() {
		return
	}
	cs := res.ComputeStats()
	tr.SetCount("chase_atoms", int64(cs.Atoms))
	tr.SetCount("chase_instances", int64(cs.Instances))
	tr.SetCount("parked_waiters", int64(res.ParkedWaiters()))
	tr.SetCount("max_depth", int64(cs.MaxDepth))
	if tr.Detailed() {
		f := tr.Child("frontier")
		for d, n := range res.DepthProfile() {
			f.SetCount("depth_"+strconv.Itoa(d), int64(n))
		}
		f.End()
	}
}

// ExtendModel continues a previously evaluated model's chase to a deeper
// depth and evaluates the model there: the resumable-chase counterpart of
// Evaluate, which the snapshot ladder's chained rungs use so that each
// depth increment is paid for once. prog must share prev's compiled rules
// and an ID space extending its store — prev's own store, or a fresh
// overlay over its frozen form. prev is not mutated: the extended chase
// and grounding are appended copies, so prev keeps serving concurrent
// readers. Spans and cancellation are as for Evaluate, with the chase
// recorded as chase-extend and the grounding as reground.
func ExtendModel(prev *Model, prog *program.Program, opts Options, depth int, tok *cancel.Token, tr *trace.Span) *Model {
	opts = opts.withDefaults()
	cs := tr.Child("chase-extend")
	res, _ := prev.Chase.Extend(prog, depth, tok)
	chaseCounters(cs, res)
	cs.End()
	if res.Interrupted {
		return &Model{Chase: res, GP: prev.GP, GM: prev.GM, Interrupted: true}
	}
	gp := prev.GP
	if res != prev.Chase {
		end := tr.Phase("reground")
		gp = ground.ExtendFromChase(prev.GP, res)
		end()
	}
	return wrapModel(opts, res, gp, solverFor(opts, tok, tr)(gp), depth)
}

// interruptedModel is the discardable marker a cancelled stage returns:
// it carries prev's (still valid, but stale) state purely so the fields
// are non-nil, with Interrupted telling callers to convert it into the
// token's cause and throw it away.
func interruptedModel(prev *Model) *Model {
	return &Model{Chase: prev.Chase, GP: prev.GP, GM: prev.GM, Interrupted: true}
}

// RebaseModel carries a previously evaluated model onto a mutated
// database: the data-dimension counterpart of ExtendModel. The set-level
// change is computed from prev's own chase database, so any number of
// intermediate mutations collapse into one rebase. Retractions replay
// the derivation forest DRed-style, additions extend the chase against
// it, and the WFS fixpoint is warm-started — only the dependency cone of
// the change is re-solved (ground.IncrementalModel). prev is not
// mutated; when the database did not change at the set level, prev
// itself is returned.
//
// prog must share prev's compiled rules and an ID space extending its
// chase's store, and newDB (with every atom interned there) must be the
// full database after the mutation. A state that cannot be rebased (a
// truncated chase, or a depth mismatch from an off-ladder caller) falls
// back to Evaluate at the requested depth.
//
// The delta-apply breakdown (diff, overdelete/rederive/reground under a
// delta-rebase child, cone warm starts) becomes child spans of tr with
// the delta and cone sizes as counters. tok (nil = never cancelled)
// gates every stage — the forest replay, the data-dimension
// continuation, the warm solves, the deepening, and crucially the cold
// fallback, which must not run when the rebase failed *because* of the
// cancel. tr and tok may each be nil.
func RebaseModel(prev *Model, prog *program.Program, opts Options, depth int, newDB program.Database, tok *cancel.Token, tr *trace.Span) *Model {
	opts = opts.withDefaults()
	endDiff := tr.Phase("diff")
	added, removed := delta.Diff(prev.Chase.DB, newDB)
	endDiff()
	if len(added) == 0 && len(removed) == 0 {
		return prev
	}
	// prev's chase may be bounded below depth: a ladder rung past
	// saturation shares the shallower saturated chase (Extend returns its
	// receiver). Rebase at the chase's own bound, then deepen — the delta
	// may have unsaturated it.
	if prevCap := prev.Chase.Opts.MaxDepth; prevCap <= depth {
		rb := tr.Child("delta-rebase")
		reb, ok := delta.Rebase(prev.Chase, prev.GP, prog, newDB, added, removed, tok, rb)
		rb.End()
		if ok {
			ws := tr.Child("warm-solve")
			gm := ground.IncrementalModel(reb.GP, prev.GM, reb.Seeds, solverFor(opts, tok, nil), tok, ws)
			ws.End()
			if gm.Interrupted {
				return interruptedModel(prev)
			}
			res, gp := reb.Chase, reb.GP
			cs := tr.Child("chase-extend")
			ext, _ := res.Extend(prog, depth, tok)
			if ext != res {
				chaseCounters(cs, ext)
			}
			cs.End()
			if ext.Interrupted {
				return interruptedModel(prev)
			}
			if ext != res {
				firstNew := len(res.Instances)
				res = ext
				endRg := tr.Phase("reground")
				gp = ground.ExtendFromChase(gp, res)
				endRg()
				seeds := make([]atom.AtomID, 0, len(res.Instances)-firstNew)
				for i := firstNew; i < len(res.Instances); i++ {
					seeds = append(seeds, res.Instances[i].Head)
				}
				ws2 := tr.Child("warm-solve")
				gm = ground.IncrementalModel(gp, gm, seeds, solverFor(opts, tok, nil), tok, ws2)
				ws2.End()
				if gm.Interrupted {
					return interruptedModel(prev)
				}
			}
			return wrapModel(opts, res, gp, gm, depth)
		}
	}
	if tok.Cancelled() {
		return interruptedModel(prev)
	}
	return Evaluate(prog, newDB, opts, depth, tok, tr)
}

// solverFor returns the solve path the options select, as a function
// over ground programs (also handed to the warm-started incremental
// evaluation, which applies it to the affected subprogram): the modular
// SCC-wise evaluation, with the configured fixpoint algorithm run inside
// each negation-cyclic component. The solve records its condense/solve
// phases (and, on a Detailed trace, the slowest components) onto tr and
// polls tok; either may be nil.
func solverFor(opts Options, tok *cancel.Token, tr *trace.Span) func(*ground.Program) *ground.Model {
	algo := algorithmFor(opts.Algorithm)
	return func(p *ground.Program) *ground.Model {
		return ground.SolveModular(p, algo, tok, tr)
	}
}

// algorithmFor maps the option to the raw global WFS fixpoint algorithm.
func algorithmFor(a Algorithm) func(*ground.Program) *ground.Model {
	switch a {
	case UnfoundedSets:
		return ground.UnfoundedIteration
	case ForwardProofs:
		return ground.ForwardProofIteration
	case Remainder:
		return ground.Remainder
	default:
		return ground.AlternatingFixpoint
	}
}

// wrapModel attaches exactness and guard-band metadata to an evaluated
// ground model.
func wrapModel(opts Options, res *chase.Result, gp *ground.Program, gm *ground.Model, depth int) *Model {
	stats := res.ComputeStats()
	// Exact when the chase visibly saturated below the cap, or when a
	// static certificate proves depth is a true bound (the chase may then
	// derive atoms at exactly the bound, but nothing beyond exists).
	certified := opts.CertifiedDepth > 0 && depth >= opts.CertifiedDepth
	m := &Model{
		Chase:       res,
		GP:          gp,
		GM:          gm,
		Exact:       !res.Truncated && (stats.MaxDepth < depth || certified),
		Interrupted: res.Interrupted || gm.Interrupted,
	}
	if m.Exact {
		m.UsableDepth = -1
	} else {
		m.UsableDepth = depth - opts.GuardBand
	}
	return m
}

// Truth returns the three-valued truth of a ground atom in the model;
// atoms outside the derived universe are false.
func (m *Model) Truth(a atom.AtomID) ground.Truth { return m.GM.TruthOfGlobal(a) }

// TrueAtoms returns all true atoms, in derivation order.
func (m *Model) TrueAtoms() []atom.AtomID {
	var out []atom.AtomID
	for i, g := range m.GP.Atoms {
		if m.GM.Truth[i] == ground.True {
			out = append(out, g)
		}
	}
	return out
}

// UndefinedAtoms returns all undefined atoms, in derivation order.
func (m *Model) UndefinedAtoms() []atom.AtomID {
	var out []atom.AtomID
	for i, g := range m.GP.Atoms {
		if m.GM.Truth[i] == ground.Undefined {
			out = append(out, g)
		}
	}
	return out
}

// Precompute materializes the lazily-built per-predicate truth indexes.
// After Precompute, Answer, Select, Satisfies, Bindings, CheckConstraints,
// and WCheck perform no writes to the model, so a model over a frozen
// store may serve unlimited concurrent readers. (Explain has its own lazy
// state; see PrepareExplanations.)
func (m *Model) Precompute() { m.buildIndexes() }

func (m *Model) buildIndexes() {
	if m.truePerPred != nil {
		return
	}
	st := m.Chase.Prog.Store
	m.truePerPred = make(map[atom.PredID][]atom.AtomID)
	m.posPerPred = make(map[atom.PredID][]atom.AtomID)
	for i, g := range m.GP.Atoms {
		if m.UsableDepth >= 0 && m.Chase.Depth(g) > m.UsableDepth {
			continue // frontier guard band: see Options.GuardBand
		}
		switch m.GM.Truth[i] {
		case ground.True:
			p := st.PredOf(g)
			m.truePerPred[p] = append(m.truePerPred[p], g)
			m.posPerPred[p] = append(m.posPerPred[p], g)
		case ground.Undefined:
			p := st.PredOf(g)
			m.posPerPred[p] = append(m.posPerPred[p], g)
		}
	}
}

// ModelStats summarizes an evaluated model for reporting layers (CLIs,
// the wfsd stats endpoint): chase shape, exactness, and the three-valued
// census of the ground model.
type ModelStats struct {
	Depth           int  // chase depth bound the model was evaluated at
	MaxDepthReached int  // deepest atom actually derived
	Exact           bool // chase saturated: genuine well-founded model
	Truncated       bool // MaxAtoms stopped the chase early
	UsableDepth     int  // guard-band ceiling for query matching; -1 = all

	ChaseAtoms     int // derived universe size
	ChaseInstances int // rule instances fired by the chase

	TrueAtoms      int // atoms true in the model
	UndefinedAtoms int // atoms undefined in the model
	FalseAtoms     int // derived atoms that are false

	// Modular-evaluation shape, populated by both the from-scratch
	// modular solve and the incremental warm-start (which reports the
	// full program's condensation): dependency-graph SCC count, the
	// largest component's size, and how many components had a negation
	// cycle and needed the full WFS fixpoint.
	SCCs       int
	LargestSCC int
	HardSCCs   int
}

// Stats computes the model's summary statistics.
func (m *Model) Stats() ModelStats {
	cs := m.Chase.ComputeStats()
	s := ModelStats{
		Depth:           m.Chase.Opts.MaxDepth,
		MaxDepthReached: cs.MaxDepth,
		Exact:           m.Exact,
		Truncated:       cs.Truncated,
		UsableDepth:     m.UsableDepth,
		ChaseAtoms:      cs.Atoms,
		ChaseInstances:  cs.Instances,
		SCCs:            m.GM.SCCs,
		LargestSCC:      m.GM.LargestSCC,
		HardSCCs:        m.GM.HardSCCs,
	}
	for _, t := range m.GM.Truth {
		switch t {
		case ground.True:
			s.TrueAtoms++
		case ground.Undefined:
			s.UndefinedAtoms++
		default:
			s.FalseAtoms++
		}
	}
	return s
}

// AnswerStats records how an adaptive answer was obtained.
type AnswerStats struct {
	Depths     []int          // depths evaluated
	Answers    []ground.Truth // answer at each depth
	FinalDepth int
	Exact      bool // chase saturated: the answer is exact, not just stable
	Stable     bool // answer met the stability window
}

// AdaptiveAnswer is the single implementation of the adaptive-deepening
// ladder: the chase depth grows from opts.AdaptiveStart in steps of
// opts.AdaptiveStep until the three-valued answer is unchanged for the
// configured stability window, or the chase saturates (exact), or the
// opts.MaxDepth ceiling is reached. modelAt supplies (or recalls) the
// model at a given depth, recording any materialization under the span
// it receives — an error (e.g. a rung schedule mismatch in the snapshot
// layer) aborts the ladder instead of crashing or silently answering
// False; an empty schedule (Options.Validate) is an error for the same
// reason. compile resolves the query against that model's ID space
// (evaluation layers that intern per model, like snapshots, must
// recompile when the query references unseen names).
//
// Each rung becomes a depth-N child span of tr (the query match under a
// match child) carrying the three-valued answer at that depth as a
// counter; tr nil costs one nil check per rung. tok (nil = never
// cancelled) is checked between rungs, and a rung whose model comes back
// Interrupted converts to the token's cause (context.DeadlineExceeded /
// context.Canceled) as the error. On cancellation the stats of the
// *completed* rungs and the last computed answer are still returned
// alongside the error — the graceful-degradation path (?partial=1)
// serves the deepest completed rung's answer marked inexact. A rung
// whose chase hit the MaxAtoms valve returns the structured
// ErrBudgetExceeded the same way.
func AdaptiveAnswer(opts Options, modelAt func(depth int, tr *trace.Span) (*Model, error),
	compile func(*Model) (*program.Query, error), tok *cancel.Token, tr *trace.Span) (ground.Truth, *AnswerStats, error) {
	if err := opts.Validate(); err != nil {
		return ground.False, nil, err
	}
	opts = opts.withDefaults()
	stats := &AnswerStats{}
	var last ground.Truth
	agree := 0
	rung := 0
	for d := opts.AdaptiveStart; d <= opts.MaxDepth; d += opts.AdaptiveStep {
		// Poll on the first rung and every 4th after it. Cold rungs poll
		// internally (chase pops, ground SCCs), so this between-rung
		// check only covers runs of already-warm rungs — each sub-µs —
		// and polling a handful of them per check keeps the token tax
		// off the warm answer path without hurting cancellation latency.
		if rung&3 == 0 && tok.Cancelled() {
			tr.MarkCancelled()
			return last, stats, tok.Reason()
		}
		rung++
		var ds *trace.Span
		if tr.Enabled() {
			ds = tr.Child("depth-" + strconv.Itoa(d))
		}
		m, err := modelAt(d, ds)
		if err != nil {
			ds.End()
			return last, stats, err
		}
		if m.Interrupted {
			ds.MarkCancelled()
			ds.End()
			tr.MarkCancelled()
			return last, stats, tok.Reason()
		}
		if err := m.Chase.BudgetErr(); err != nil {
			ds.SetCount("budget_exceeded", 1)
			ds.End()
			return last, stats, err
		}
		q, err := compile(m)
		if err != nil {
			ds.End()
			return last, stats, err
		}
		endMatch := ds.Phase("match")
		ans := m.Answer(q)
		endMatch()
		ds.SetCount("answer", int64(ans))
		ds.End()
		stats.Depths = append(stats.Depths, d)
		stats.Answers = append(stats.Answers, ans)
		stats.FinalDepth = d
		if m.Exact {
			stats.Exact = true
			stats.Stable = true
			return ans, stats, nil
		}
		if len(stats.Answers) > 1 && ans == last {
			agree++
			if agree >= opts.StabilityWindow {
				stats.Stable = true
				return ans, stats, nil
			}
		} else {
			agree = 0
		}
		last = ans
	}
	return last, stats, nil
}
