package wfs

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/atom"
	"repro/internal/cancel"
	"repro/internal/core"
	"repro/internal/ground"
	"repro/internal/program"
	"repro/internal/term"
	"repro/internal/trace"
)

// maxSnapshotChain bounds how many consecutive epochs may rebase their
// snapshots onto the previous one. Each rebased epoch adds one overlay
// store layer per materialized model, and ID resolution walks the layer
// chain, so unbounded chaining would slowly tax every read; past the
// budget the next snapshot rebuilds fresh, compacting the chain.
const maxSnapshotChain = 8

// Snapshot is an immutable, fully evaluable view of a System at one
// mutation epoch: a frozen term/atom store, the compiled program, and the
// database as of that epoch. A Snapshot is safe for unlimited concurrent
// readers and acquires no mutex on the query-answering hot path.
//
// Evaluation state is built lazily on private overlay stores layered over
// the frozen base — so evaluation interns chase-derived terms without ever
// mutating shared state — and at most once per chase depth: the
// well-founded model at depth d is fixed by the program, the database and
// d, so the adaptive ladder's rungs and the configured-depth reads
// (Select, TruthOf, Stats, …) share one model slot per depth. A deeper
// slot resumes the chase of the deepest shallower slot already built
// (chase.Result.Extend into a fresh overlay over its frozen store, with
// the grounding appended by ground.ExtendFromChase) instead of
// re-chasing from the database. Each slot's model and store are frozen
// before publication, preserving the immutability contract for
// concurrent readers of other slots. Query-time interning of names the
// snapshot has never seen goes into a small per-call overlay the same
// way.
//
// A Snapshot remains answerable forever: it keeps serving its epoch's
// consistent view even after the originating System has accepted further
// writes. Grab a fresh snapshot (System.Snapshot) to observe them.
type Snapshot struct {
	store   *atom.Store // frozen
	prog    *program.Program
	db      program.Database
	queries []*program.Query
	opts    core.Options // defaults resolved
	epoch   uint64

	// models holds one model slot per chase depth the snapshot serves,
	// ascending: the adaptive ladder's schedule, plus opts.Depth when it
	// is off that schedule. Every System snapshot resolves the same
	// options, so index i names the same depth in every epoch.
	models []*snapModel

	// Delta-rebase bookkeeping (see newSnapshot): chain counts the
	// epochs since the last fresh build, and the safe*Len fields bound
	// the ID-space prefix shared with every store chain any slot of this
	// snapshot might evaluate on — the oldest rebase ancestor's base
	// store. Compiled queries referencing only IDs below these bounds
	// are valid against every model of the snapshot.
	chain       int
	safeAtomLen int
	safeTermLen int
	safePredLen int

	// metrics points at the owning System's always-on counters; slot
	// builds fold their phase spans into it (EngineMetrics.observeBuild).
	// nil in tests that construct snapshots directly.
	metrics *EngineMetrics

	statsOnce sync.Once
	stats     Stats
}

// snapModel lazily evaluates the model at one chase depth over a private
// overlay store. The mutex + done flag make construction race-free while
// letting a cancelled build abort cleanly: a build interrupted by its
// caller's deadline installs nothing, so the slot stays cold and the next
// caller (with a live token) rebuilds it — a cancelled request can never
// poison a slot for every later reader. After done is set, the model and
// its (frozen) overlay store are read-only and reads take no lock.
type snapModel struct {
	depth int
	// reb links the same-index slot of the previous epoch's snapshot
	// (nil when fresh). It is cleared once this slot materializes — its
	// own model is then the better rebase source for later epochs, and
	// holding the link would keep up to maxSnapshotChain epochs of
	// evaluation state reachable. Atomic because later epochs' rebase
	// walks read it concurrently with the clear.
	reb  atomic.Pointer[snapModel]
	mu   sync.Mutex
	done atomic.Bool // set after a completed build installs m; read lock-free
	m    *core.Model
}

// get returns (building if necessary) the slot's model. A build takes
// the cheapest of three routes, in order: rebase the previous epoch's
// materialized same-depth model onto the delta (rebase); else resume the
// chase of the deepest shallower slot of this snapshot that is already
// built (core.ExtendModel); else evaluate from the database
// (core.Evaluate). tok, when non-nil, is the calling request's
// cancellation token: a build cut short by it returns the token's cause
// as the error and leaves the slot unbuilt. tr, when non-nil, is the
// caller's trace span: whichever goroutine wins the build lock records
// the build's phase tree under it (losers of the race observe only their
// wait). A build span is recorded even with tr nil — standalone, solely
// to feed the System's always-on EngineMetrics — which costs a handful
// of time.Now calls on an operation that chases and solves a whole
// model.
func (sm *snapModel) get(s *Snapshot, tok *cancel.Token, tr *trace.Span) (*core.Model, error) {
	if sm.done.Load() {
		return sm.m, nil
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.done.Load() {
		return sm.m, nil
	}
	build := tr.Child("build-depth-" + strconv.Itoa(sm.depth))
	if build == nil {
		build = trace.New("build-depth-" + strconv.Itoa(sm.depth))
	}
	rebased := false
	var m *core.Model
	if rm := sm.rebase(s, tok, build); rm != nil {
		rebased = true
		m = rm
	} else if pm := s.builtBelow(sm.depth); pm != nil {
		// Continue the shallower model's chase on an overlay over its
		// (frozen) store. IDs carry over, so the extended chase and
		// grounding append to frozen state without touching it.
		ost := atom.NewOverlay(pm.Chase.Prog.Store)
		m = core.ExtendModel(pm, s.prog.WithStore(ost), s.opts, sm.depth, tok, build)
		ost.Freeze()
	} else {
		ost := atom.NewOverlay(s.store)
		m = core.Evaluate(s.prog.WithStore(ost), s.db, s.opts, sm.depth, tok, build)
		ost.Freeze()
	}
	if m.Interrupted {
		build.MarkCancelled()
		build.End()
		return nil, tok.Reason()
	}
	endPre := build.Phase("precompute")
	m.Precompute()
	endPre()
	sm.m = m
	sm.reb.Store(nil) // release the previous-epoch chain
	sm.done.Store(true)
	build.End()
	s.metrics.observeBuild(build, rebased)
	return sm.m, nil
}

// builtBelow returns the model of the deepest slot shallower than depth
// that is already materialized, or nil. It never builds: a deeper slot
// only reuses work some reader already asked for.
func (s *Snapshot) builtBelow(depth int) *core.Model {
	i, _ := s.slotIndex(depth)
	for i--; i >= 0; i-- {
		if sm := s.models[i]; sm.done.Load() {
			return sm.m
		}
	}
	return nil
}

// rebase carries the nearest already-materialized same-depth slot of an
// earlier epoch across the accumulated database delta: the snapshot's
// database is translated into that slot's ID space (a fresh overlay over
// its frozen store) and core.RebaseModel diffs it against the slot's own
// chase database, so any number of intermediate epochs collapse into one
// rebase. Slots that were never materialized are skipped — rebasing must
// never force old evaluation work that nobody asked for. (A skipped slot
// that materializes mid-walk may have just cleared its own reb link; the
// walk then simply ends and get falls back to a fresh build.) Returns
// nil when no rebase source exists, leaving get on its fresh-build
// paths; an interrupted rebase surfaces through the returned model's
// Interrupted flag, which get converts to the token's cause.
func (sm *snapModel) rebase(s *Snapshot, tok *cancel.Token, tr *trace.Span) *core.Model {
	for r := sm.reb.Load(); r != nil; r = r.reb.Load() {
		if !r.done.Load() || r.m == nil || sm.depth != r.depth {
			continue
		}
		pm := r.m
		base := pm.Chase.Prog.Store
		if !base.Frozen() {
			return nil
		}
		ost := atom.NewOverlay(base)
		db, ok := s.translateDB(ost)
		if !ok {
			return nil
		}
		m := core.RebaseModel(pm, s.prog.WithStore(ost), s.opts, sm.depth, db, tok, tr)
		ost.Freeze()
		return m
	}
	return nil
}

// translateDB maps the snapshot's database — interned in the current
// master-clone store — into the ID space of an older slot's store chain.
// Both chains share the master store's history up to the oldest rebase
// ancestor, so atoms below the safe prefix carry over verbatim; newer
// atoms (facts added since that ancestor's epoch) re-intern by name into
// the target overlay. Bails (false) on a database fact with non-constant
// arguments, which the rebase path cannot translate.
func (s *Snapshot) translateDB(to *atom.Store) (program.Database, bool) {
	out := make(program.Database, len(s.db))
	for i, a := range s.db {
		if int(a) < s.safeAtomLen {
			out[i] = a
			continue
		}
		args := s.store.Args(a)
		ts := make([]term.ID, len(args))
		for j, tid := range args {
			if int(tid) < s.safeTermLen {
				ts[j] = tid
				continue
			}
			if s.store.Terms.Kind(tid) != term.Const {
				return nil, false
			}
			ts[j] = to.Terms.Const(s.store.Terms.Name(tid))
		}
		p := s.store.PredOf(a)
		if int(p) >= s.safePredLen {
			var err error
			if p, err = to.Pred(s.store.PredName(p), len(args)); err != nil {
				return nil, false
			}
		}
		out[i] = to.Atom(p, ts)
	}
	return out, true
}

// newSnapshot builds a snapshot from an already-frozen store clone and a
// clipped database slice. When prevSnap is non-nil (the last published
// snapshot, staged across a mutation), every slot links to its same-depth
// predecessor so evaluation can rebase the predecessor's materialized
// work onto the delta instead of rebuilding; the safe ID-space bounds are
// inherited, since a rebased slot may serve from any ancestor's chain.
// Callers (System.Snapshot) hold the system lock.
func newSnapshot(store *atom.Store, prog *program.Program, db program.Database,
	queries []*program.Query, opts core.Options, epoch uint64, prevSnap *Snapshot,
	metrics *EngineMetrics) *Snapshot {
	opts = opts.WithDefaults()
	s := &Snapshot{
		store:   store,
		prog:    prog.WithStore(store),
		db:      db,
		queries: queries,
		opts:    opts,
		epoch:   epoch,
		metrics: metrics,
	}
	if prevSnap != nil {
		s.chain = prevSnap.chain + 1
		s.safeAtomLen = prevSnap.safeAtomLen
		s.safeTermLen = prevSnap.safeTermLen
		s.safePredLen = prevSnap.safePredLen
	} else {
		s.safeAtomLen = store.Len()
		s.safeTermLen = store.Terms.Len()
		s.safePredLen = store.NumPreds()
	}
	var depths []int
	for d := opts.AdaptiveStart; d <= opts.MaxDepth; d += opts.AdaptiveStep {
		depths = append(depths, d)
	}
	if i, ok := slices.BinarySearch(depths, opts.Depth); !ok {
		depths = slices.Insert(depths, i, opts.Depth)
	}
	s.models = make([]*snapModel, len(depths))
	for i, d := range depths {
		sm := &snapModel{depth: d}
		if prevSnap != nil && i < len(prevSnap.models) && prevSnap.models[i].depth == d {
			sm.reb.Store(prevSnap.models[i])
		}
		s.models[i] = sm
	}
	return s
}

// Epoch returns the mutation epoch this snapshot was taken at.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NumFacts returns the number of database facts in the snapshot.
func (s *Snapshot) NumFacts() int { return len(s.db) }

// compileFor compiles a prepared query against the ID space of model m,
// interning unknown names into a per-call overlay over m's store. When
// compilation interns nothing new AND references only IDs below the
// snapshot's safe shared prefix, the result is valid against every model
// of this snapshot — including delta-rebased slots living on earlier
// epochs' store chains, where IDs above the prefix mean different things
// — and is cached in the Query for lock-free reuse.
func (s *Snapshot) compileFor(q *Query, m *core.Model) (*program.Query, error) {
	if c := q.compiled.Load(); c != nil && c.store == s.store {
		return c.cq, nil
	}
	ost := atom.NewOverlay(m.Chase.Prog.Store)
	cq, err := program.CompileQuery(q.ast, ost)
	if err != nil {
		return nil, err
	}
	if ost.Pristine() && queryWithin(cq, s.safePredLen, s.safeTermLen) {
		q.compiled.Store(&compiledQuery{store: s.store, cq: cq})
	}
	return cq, nil
}

// queryWithin reports whether every predicate and constant the compiled
// query references lies below the given ID bounds.
func queryWithin(cq *program.Query, maxPred, maxTerm int) bool {
	within := func(ps []atom.Pattern) bool {
		for _, p := range ps {
			if int(p.Pred) >= maxPred {
				return false
			}
			for _, a := range p.Args {
				if !a.IsVar() && int(a.Const) >= maxTerm {
					return false
				}
			}
		}
		return true
	}
	return within(cq.Pos) && within(cq.Neg)
}

// answerLadder runs the adaptive ladder (core.AdaptiveAnswer) over the
// snapshot's model slots: each depth resolves to a model built at most
// once per snapshot. compile resolves the query against each model's ID
// space; tr (nil on the hot path) records the per-depth phase breakdown.
func (s *Snapshot) answerLadder(compile func(*core.Model) (*program.Query, error), tok *cancel.Token, tr *trace.Span) (Truth, *core.AnswerStats, error) {
	modelAt := func(depth int, tr *trace.Span) (*core.Model, error) {
		return s.modelAt(depth, tok, tr)
	}
	return core.AdaptiveAnswer(s.opts, modelAt, compile, tok, tr)
}

// slotIndex binary-searches the ascending slots for depth: the index of
// its slot, or where one would go, and whether it exists.
func (s *Snapshot) slotIndex(depth int) (int, bool) {
	return slices.BinarySearchFunc(s.models, depth, func(sm *snapModel, d int) int { return cmp.Compare(sm.depth, d) })
}

// slot returns the model slot at depth, or nil when the snapshot serves
// no such depth.
func (s *Snapshot) slot(depth int) *snapModel {
	if i, ok := s.slotIndex(depth); ok {
		return s.models[i]
	}
	return nil
}

// modelAt returns (building if necessary) the model at the given depth.
// The slots are derived from the same resolved options AdaptiveAnswer
// iterates with, so every depth the ladder requests has one; a mismatch
// (which would indicate option drift between the snapshot and the
// ladder) is reported as an error rather than a panic, so it can never
// crash a serving process. tr, when non-nil, receives the slot's build
// phase tree — or only the wait, if another goroutine is mid-build.
func (s *Snapshot) modelAt(depth int, tok *cancel.Token, tr *trace.Span) (*core.Model, error) {
	sm := s.slot(depth)
	if sm == nil {
		return nil, fmt.Errorf("wfs: no snapshot model at depth %d (schedule start %d step %d max %d, configured depth %d)",
			depth, s.opts.AdaptiveStart, s.opts.AdaptiveStep, s.opts.MaxDepth, s.opts.Depth)
	}
	return sm.get(s, tok, tr)
}

// configured returns the model at the configured depth (opts.Depth),
// building it on first use: the one accessor of every configured-depth
// read. The error is *ErrBudgetExceeded when the MaxAtoms valve truncated
// the model's chase; the model is returned regardless, because the
// introspection reads (Stats, TrueFacts, UndefinedFacts,
// CheckConstraints) serve the truncated universe — a sound lower
// approximation — while the answer-shaped reads (Select, TruthOf,
// Explain, WCheck) refuse it, like the ladder does.
func (s *Snapshot) configured() (*core.Model, error) {
	m, _ := s.slot(s.opts.Depth).get(s, nil, nil) // a nil token never cancels
	return m, m.Chase.BudgetErr()
}

// Answer evaluates a prepared NBCQ by adaptive deepening and returns the
// three-valued answer: AnswerCtxTraced with no deadline and no trace.
// Safe for unlimited concurrent callers.
func (s *Snapshot) Answer(q *Query) (Truth, error) {
	t, _, err := s.AnswerCtxTraced(context.Background(), q, nil)
	return t, err
}

// answerWarmExact answers q from the first ladder rung alone, when that
// rung is already materialized and its model is exact — the steady
// state of every warm snapshot of a terminating program, and the shape
// the server's cache-miss path hits on almost all traffic. In that
// state the ladder would return at its first rung anyway, so this path
// produces byte-identical answers and stats; what it skips is the
// per-call cancellation plumbing (token acquisition, option
// revalidation), which on a sub-microsecond warm answer costs more than
// the answer itself. ok=false (cold first rung, inexact model, or a
// query that fails to compile) falls back to the full token-carrying
// ladder, which re-encounters and properly reports any error.
func (s *Snapshot) answerWarmExact(q *Query) (Truth, *core.AnswerStats, bool) {
	sm := s.slot(s.opts.AdaptiveStart)
	if sm == nil || !sm.done.Load() {
		return False, nil, false
	}
	m := sm.m
	if !m.Exact {
		return False, nil, false
	}
	cq, err := s.compileFor(q, m)
	if err != nil {
		return False, nil, false
	}
	ans := m.Answer(cq)
	return ans, &core.AnswerStats{
		Depths:     []int{sm.depth},
		Answers:    []Truth{ans},
		FinalDepth: sm.depth,
		Exact:      true,
		Stable:     true,
	}, true
}

// AnswerCtxTraced evaluates a prepared NBCQ by adaptive deepening under
// a context, returning the three-valued answer and the ladder's stats.
// Safe for unlimited concurrent callers.
//
// The evaluation polls ctx's cancellation cooperatively (every ~1024
// chase steps, every SCC of the fixpoint, every few rungs of the ladder)
// and returns ctx's error — context.DeadlineExceeded or context.Canceled
// — when it fires. A cancelled build installs nothing: the slot stays
// cold and later callers rebuild it. On cancellation the stats of the
// rungs that completed before the deadline are returned alongside the
// error, so callers opting into graceful degradation can serve the
// deepest completed rung's answer (marked inexact) instead of nothing.
// An uncancellable ctx (context.Background) costs one nil check per
// poll point.
//
// root, when non-nil, is the caller's already-open span — the server's
// request-scoped tracing path, where the root belongs to the HTTP
// request rather than to this evaluation: the ladder records its phase
// tree under a "ladder" child, at the instrumentation level of root's
// detail flag. Rungs already materialized on this snapshot appear as
// match-only depth spans; a first traced query after a write shows the
// full rebase/build cost it actually paid. Spans cut short by
// cancellation carry a "cancelled" counter.
func (s *Snapshot) AnswerCtxTraced(ctx context.Context, q *Query, root *trace.Span) (Truth, *core.AnswerStats, error) {
	// One lock-free poll up front keeps the contract that an
	// already-cancelled context never starts an evaluation, then the
	// untraced warm-exact fast path answers without acquiring a token at
	// all — a warm exact answer cannot outlive any deadline worth
	// setting. A traced call takes the full ladder so its span tree shows
	// the rung it answered from.
	if done := ctx.Done(); done != nil {
		select {
		case <-done:
			err := ctx.Err()
			if err == nil {
				err = context.Canceled
			}
			return False, nil, err
		default:
		}
	}
	if root == nil {
		if t, st, ok := s.answerWarmExact(q); ok {
			return t, st, nil
		}
	}
	tok := cancel.For(ctx)
	ladder := root.Child("ladder")
	t, st, err := s.answerLadder(func(m *core.Model) (*program.Query, error) {
		return s.compileFor(q, m)
	}, tok, ladder)
	ladder.End()
	// The ladder has returned: every build ran synchronously under its
	// slot lock, so nothing can still poll the token — recycle it (it is
	// a measurable share of the warm answer path's cost).
	tok.Release()
	return t, st, err
}

// WarmRebased eagerly materializes every model slot whose
// previous-epoch counterpart was already materialized, recording the
// work — including the delta-rebase spans — under tr. The server's
// mutation path calls this so the rebase a mutation causes lands in the
// mutating request's trace (and its latency bill) instead of ambushing
// the next reader; models that were cold before the mutation stay cold.
func (s *Snapshot) WarmRebased(tr *trace.Span) {
	for _, sm := range s.models {
		if r := sm.reb.Load(); r != nil && r.done.Load() {
			sm.get(s, nil, tr)
		}
	}
}

// answerCompiled runs the ladder for a query compiled at load time against
// the system's root store (embedded '?' queries). Such queries reference
// only pre-snapshot IDs, valid against every model.
func (s *Snapshot) answerCompiled(cq *program.Query) (Truth, error) {
	t, _, err := s.answerLadder(func(*core.Model) (*program.Query, error) { return cq, nil }, nil, nil)
	return t, err
}

// AnswerAll answers every query embedded in the loaded source. A ladder
// evaluation error (an invalid schedule or slot mismatch) is carried on
// the result rather than rendered as a silent False answer.
func (s *Snapshot) AnswerAll() []QueryResult {
	out := make([]QueryResult, 0, len(s.queries))
	for _, cq := range s.queries {
		t, err := s.answerCompiled(cq)
		out = append(out, QueryResult{Query: cq.Label, Answer: t, Err: err})
	}
	return out
}

// Select returns the certain answers of a non-Boolean prepared query as
// tuples of constant names in the query's variable order (§2.1: answers
// are tuples over ∆, so bindings to labelled nulls are excluded). The
// first return lists the variable names. Selection runs against the model
// at the configured depth; when the MaxAtoms valve truncated that model's
// chase, Select returns *ErrBudgetExceeded like the ladder does instead
// of answering from a partial universe.
func (s *Snapshot) Select(q *Query) ([]string, [][]string, error) {
	m, err := s.configured()
	if err != nil {
		return nil, nil, err
	}
	cq, err := s.compileFor(q, m)
	if err != nil {
		return nil, nil, err
	}
	st := m.Chase.Prog.Store
	tuples := m.Select(cq)
	out := make([][]string, len(tuples))
	for i, tup := range tuples {
		row := make([]string, len(tup))
		for j, t := range tup {
			row[j] = st.Terms.String(t)
		}
		out[i] = row
	}
	return append([]string(nil), cq.VarNames...), out, nil
}

// groundAtom parses "pred(c1,…,cn)" against model m's ID space, interning
// unseen names into a per-call overlay. The returned store renders the
// atom and any proof over it.
func (s *Snapshot) groundAtom(m *core.Model, src string) (atom.AtomID, *atom.Store, error) {
	ost := atom.NewOverlay(m.Chase.Prog.Store)
	q, err := program.ParseQuery(src, ost)
	if err != nil {
		return atom.NoAtom, nil, err
	}
	if len(q.Pos) != 1 || len(q.Neg) != 0 || q.NumVars != 0 {
		return atom.NoAtom, nil, fmt.Errorf("wfs: %q is not a single ground atom", src)
	}
	return ost.Instantiate(q.Pos[0], atom.NewSubst(0)), ost, nil
}

// TruthOf returns the truth of a ground atom written in surface syntax,
// e.g. TruthOf("win(a)"), in the configured-depth model, or
// *ErrBudgetExceeded when that model's chase was truncated.
func (s *Snapshot) TruthOf(atomSrc string) (Truth, error) {
	m, err := s.configured()
	if err != nil {
		return False, err
	}
	a, _, err := s.groundAtom(m, atomSrc)
	if err != nil {
		return False, err
	}
	return m.Truth(a), nil
}

// Explain renders a forward proof (Definition 5) of a ground atom. The
// boolean reports whether the atom is true in the model (only true atoms
// have forward proofs); the error reports malformed input or a truncated
// chase (*ErrBudgetExceeded). The two are distinct: a parse failure is
// an error, not "false".
func (s *Snapshot) Explain(atomSrc string) (string, bool, error) {
	m, err := s.configured()
	if err != nil {
		return "", false, err
	}
	a, ost, err := s.groundAtom(m, atomSrc)
	if err != nil {
		return "", false, err
	}
	m.PrepareExplanations() // idempotent: guarded by a per-model Once
	proof, ok := m.Explain(a)
	if !ok {
		return "", false, nil
	}
	return proof.Render(ost), true, nil
}

// WCheck runs the goal-directed membership check on a ground atom of the
// configured-depth model, or returns *ErrBudgetExceeded when that model's
// chase was truncated.
func (s *Snapshot) WCheck(atomSrc string) (Truth, *core.WCheckStats, error) {
	m, err := s.configured()
	if err != nil {
		return False, nil, err
	}
	a, _, err := s.groundAtom(m, atomSrc)
	if err != nil {
		return False, nil, err
	}
	t, stats := m.WCheck(a)
	return t, stats, nil
}

// CheckConstraints evaluates the program's negative constraints and EGDs
// against the configured-depth model.
func (s *Snapshot) CheckConstraints() []core.Violation {
	m, _ := s.configured()
	return m.CheckConstraints()
}

// TrueFacts renders all true atoms of the model, sorted.
func (s *Snapshot) TrueFacts() []string { return s.renderFacts(ground.True) }

// UndefinedFacts renders all undefined atoms of the model, sorted.
func (s *Snapshot) UndefinedFacts() []string { return s.renderFacts(ground.Undefined) }

// renderFacts renders every atom with the given truth value that query
// matching may use: like Answer/Select/buildIndexes, it excludes atoms
// beyond Model.UsableDepth, whose guard-band frontier truth values are
// unreliable (they can flip once deeper children exist) and which no
// query answer ever observes. It runs entirely on the snapshot — no
// system lock is held — and preallocates the output from a filtered count
// so rendering large models does not repeatedly regrow the slice.
func (s *Snapshot) renderFacts(tv Truth) []string {
	m, _ := s.configured()
	st := m.Chase.Prog.Store
	usable := func(g atom.AtomID) bool {
		return m.UsableDepth < 0 || m.Chase.Depth(g) <= m.UsableDepth
	}
	n := 0
	for i, g := range m.GP.Atoms {
		if m.GM.Truth[i] == tv && usable(g) {
			n++
		}
	}
	out := make([]string, 0, n)
	for i, g := range m.GP.Atoms {
		if m.GM.Truth[i] == tv && usable(g) {
			out = append(out, st.String(g))
		}
	}
	sort.Strings(out)
	return out
}

// Stats summarizes the snapshot's evaluated model. The summary is computed
// once per snapshot and cached; concurrent callers share it.
func (s *Snapshot) Stats() Stats {
	s.statsOnce.Do(func() {
		m, _ := s.configured()
		_, strat := s.prog.Stratify()
		delta := core.DeltaForSchema(s.store)
		s.stats = Stats{
			Facts:      len(s.db),
			Epoch:      s.epoch,
			Model:      m.Stats(),
			Algorithm:  s.opts.Algorithm.String(),
			Stratified: strat,
			DeltaBound: formatBig(delta),
			DeltaBits:  delta.BitLen(),
		}
	})
	return s.stats
}
