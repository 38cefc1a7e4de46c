package sim

// The slot engine runs each slot's builder auction over a bounded worker
// pool (RunOptions.Workers; a pool of one is the same code). Its output does
// not depend on the pool size because each slot round is split into four
// phases with a strict ownership rule per shared resource:
//
//   A. Prepare (sequential): every draw from the shared flow RNG and every
//      FindBundles call against the shared searcher context happens here, in
//      builder order.
//   B. Build (parallel): each builder constructs its block against a private
//      copy-on-write fork of the canonical state, drawing only from its own
//      private RNG stream, so scheduling order cannot perturb any draw.
//   C. Validate (parallel): the distinct blocks that the in-order commit
//      would execute are validated concurrently on separate forks and the
//      results primed into the shared validation cache.
//   D. Commit (sequential): submissions reach the relays in builder order,
//      so order-sensitive relay state (best-bid replacement is
//      strictly-greater) never depends on scheduling.
//
// Every fork a slot round takes — searcher context, builds, validations and
// the local fallback block — comes from the engine's arena, which the run
// loop reclaims once per slot after the winner is accepted.
//
// Worker panics are isolated by the stats worker pool and surface as run
// errors instead of crashing sibling builds.

import (
	"context"
	"fmt"
	"time"

	"github.com/ethpbs/pbslab/internal/builder"
	"github.com/ethpbs/pbslab/internal/chain"
	"github.com/ethpbs/pbslab/internal/ofac"
	"github.com/ethpbs/pbslab/internal/pbs"
	"github.com/ethpbs/pbslab/internal/rng"
	"github.com/ethpbs/pbslab/internal/searcher"
	"github.com/ethpbs/pbslab/internal/state"
	"github.com/ethpbs/pbslab/internal/stats"
	"github.com/ethpbs/pbslab/internal/types"
)

// buildTask is one builder's work for the slot. The bundle and candidate
// buffers are pooled across slots; everything a relay retains (the
// submission and its block) is freshly allocated per build.
type buildTask struct {
	e        *builderEntry // nil for exploit tasks
	exploit  bool
	relayOne string    // exploit target relay
	claim    types.Wei // exploit claimed value

	args builder.Args
	res  *builder.Result
	sub  *pbs.Submission
	ok   bool
	// validate marks tasks whose block the in-order commit would execute;
	// only those are pre-validated in phase C.
	validate bool

	bundles   []*types.Bundle
	candidate []*types.Transaction
}

// slotEngine holds the pooled per-slot scratch of the slot round.
type slotEngine struct {
	w       *World
	view    *cachingView
	workers int
	// arena supplies every state fork of the current slot round.
	arena state.Arena

	tasks []*buildTask // task pool, grown on demand
	used  int
	order []*buildTask // current slot's tasks in submit order
	par   []*buildTask // subset built in parallel (distinct builders)
	seq   []*buildTask // exploit subset (shared exploiter RNG: built in order)

	valBlocks []*types.Block
	valRes    []cachedValidation
	seen      map[types.Hash]bool

	// dayAfter is the registry's day-after-designation blacklist, enforced
	// by filtering builders without an aligned relay.
	dayAfter *ofac.Schedule
}

// newSlotEngine builds the engine and points the validation cache's misses
// at the engine's fork arena.
func newSlotEngine(w *World, view *cachingView, workers int) *slotEngine {
	eng := &slotEngine{
		w:        w,
		view:     view,
		workers:  workers,
		seen:     map[types.Hash]bool{},
		dayAfter: ofac.NewSchedule(w.Sanctions, nil),
	}
	view.arena = &eng.arena
	return eng
}

// grabTask returns a recycled (or new) task with its buffers reset.
func (eng *slotEngine) grabTask() *buildTask {
	if eng.used == len(eng.tasks) {
		eng.tasks = append(eng.tasks, &buildTask{})
	}
	t := eng.tasks[eng.used]
	eng.used++
	t.e = nil
	t.exploit = false
	t.relayOne = ""
	t.claim = types.Wei{}
	t.res = nil
	t.sub = nil
	t.ok = false
	t.validate = false
	t.bundles = t.bundles[:0]
	t.candidate = t.candidate[:0]
	return t
}

// blacklistFor resolves a filtering builder's sanction set at time at:
// aligned builders enforce their relay's wave-lagged blacklist, the rest
// follow the registry's day-after rule. The returned map is shared and
// read-only.
func (eng *slotEngine) blacklistFor(e *builderEntry, at time.Time) map[types.Address]bool {
	if !e.Spec.OFACFiltering {
		return nil
	}
	if r, ok := eng.w.Relays[e.Spec.AlignedRelay]; ok {
		return r.BlacklistAt(at)
	}
	return eng.dayAfter.At(at)
}

// runSlot has every active builder construct and submit a block for the
// slot.
func (eng *slotEngine) runSlot(now time.Time, slot uint64, proposerPub types.PubKey,
	proposerFee types.Address, shared []*types.Bundle, protected []*types.Transaction,
	pending []*types.Transaction, sctx *searcher.Context, flowRng *rng.RNG) error {

	w := eng.w
	eng.used = 0
	eng.order = eng.order[:0]
	eng.par = eng.par[:0]
	eng.seq = eng.seq[:0]

	// Phase A: sequential prepare. Shared flow-RNG draws and exclusive
	// searcher runs against the shared context happen in builder order;
	// builder-private state is staged into the task.
	prep := func(e *builderEntry) {
		if !e.Spec.Active.Contains(now) {
			return
		}
		t := eng.grabTask()
		t.e = e
		flow := e.Spec.Flow.At(now)
		for _, b := range shared {
			if flowRng.Bool(flow) {
				t.bundles = append(t.bundles, b)
			}
		}
		for _, ex := range e.Exclusive {
			t.bundles = append(t.bundles, ex.FindBundles(sctx)...)
		}
		blacklist := eng.blacklistFor(e, now)
		for _, tx := range protected {
			if blacklist != nil && (blacklist[tx.From] || blacklist[tx.To]) {
				continue
			}
			t.candidate = append(t.candidate, tx)
		}
		for _, tx := range pending {
			if blacklist != nil && (blacklist[tx.From] || blacklist[tx.To]) {
				continue
			}
			t.candidate = append(t.candidate, tx)
		}
		if len(e.Spec.SubsidyOverride.Points) > 0 {
			e.B.SubsidyProb = e.Spec.SubsidyOverride.At(now)
		}
		t.args = builder.Args{
			Chain: w.Chain, Slot: slot,
			ProposerPubkey:       proposerPub,
			ProposerFeeRecipient: proposerFee,
			Bundles:              t.bundles,
			Pending:              t.candidate,
		}
		eng.order = append(eng.order, t)
		eng.par = append(eng.par, t)
	}
	for _, e := range w.Builders {
		prep(e)
	}
	for _, e := range w.SmallBuilders {
		if flowRng.Float64() < w.Scenario.SmallBuilderSampleProb {
			prep(e)
		}
	}
	for _, ex := range w.Scenario.Exploits {
		if !ex.Window.Contains(now) {
			continue
		}
		if _, ok := w.Relays[ex.Relay]; !ok {
			continue
		}
		t := eng.grabTask()
		t.exploit = true
		t.relayOne = ex.Relay
		t.claim = types.Ether(ex.ClaimETH)
		t.args = builder.Args{
			Chain: w.Chain, Slot: slot,
			ProposerPubkey:       proposerPub,
			ProposerFeeRecipient: proposerFee,
			Pending:              pending,
		}
		eng.order = append(eng.order, t)
		eng.seq = append(eng.seq, t)
	}

	// Phase B: parallel builds. Each task's builder is distinct and draws
	// only from its private RNG stream against a private state fork, so the
	// fan-out cannot change any byte of any block. Exploit tasks share the
	// exploiter's stream and run sequentially after the pool drains.
	if n := len(eng.par); n > 0 {
		err := stats.ParallelDaysErr(context.Background(), n, eng.workers, func(i int) error {
			t := eng.par[i]
			t.args.State = w.Chain.StateFork(&eng.arena)
			t.res, t.ok = t.e.B.Build(t.args)
			if t.ok {
				t.sub = t.e.B.Submission(t.args, t.res)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("sim: slot %d: parallel build: %w", slot, err)
		}
	}
	for _, t := range eng.seq {
		t.args.State = w.Chain.StateFork(&eng.arena)
		t.res, t.ok = w.Exploiter.Build(t.args)
		if !t.ok {
			continue
		}
		t.res.Payment = t.claim // the lie
		t.sub = w.Exploiter.Submission(t.args, t.res)
	}

	// Phase C: parallel validation of exactly the distinct blocks the
	// in-order commit would execute, primed into the shared cache so the
	// commit phase's relay checks are pure cache hits.
	clear(eng.seen)
	eng.valBlocks = eng.valBlocks[:0]
	for _, t := range eng.order {
		if !t.ok {
			continue
		}
		t.validate = eng.wouldValidate(t, now, proposerPub, proposerFee)
		if !t.validate {
			continue
		}
		h := t.sub.Trace.BlockHash
		if !eng.seen[h] {
			eng.seen[h] = true
			eng.valBlocks = append(eng.valBlocks, t.sub.Block)
		}
	}
	if n := len(eng.valBlocks); n > 0 {
		if cap(eng.valRes) < n {
			eng.valRes = make([]cachedValidation, n)
		}
		eng.valRes = eng.valRes[:n]
		err := stats.ParallelDaysErr(context.Background(), n, eng.workers, func(i int) error {
			res, st, verr := w.Chain.ValidateFork(eng.valBlocks[i], &eng.arena)
			eng.valRes[i] = cachedValidation{res: res, st: st, err: verr}
			return nil
		})
		if err != nil {
			return fmt.Errorf("sim: slot %d: parallel validate: %w", slot, err)
		}
		for i, b := range eng.valBlocks {
			eng.view.prime(b.Hash(), eng.valRes[i])
		}
	}

	// Phase D: sequential commit in builder order.
	for _, t := range eng.order {
		if !t.ok {
			continue
		}
		if t.exploit {
			if r, ok := w.Relays[t.relayOne]; ok {
				_ = r.SubmitBlock(now, t.sub)
			}
			continue
		}
		for _, name := range t.e.Spec.Profile.Relays {
			if r, ok := w.Relays[name]; ok {
				_ = r.SubmitBlock(now, t.sub)
			}
		}
	}
	return nil
}

// accept commits the slot winner without executing it a second time. A PBS
// winner was already executed exactly once this round — in phase C, or
// lazily by the first relay check — and its fork post-state sits in the
// shared cache; a local block carries the artifacts accumulated while
// packing. Either way the fork is absorbed into the canonical state in
// place. A cache miss (possible only for blocks the engine did not see)
// falls back to the re-executing Accept.
func (eng *slotEngine) accept(block *types.Block, local cachedValidation) (*chain.StoredBlock, error) {
	if local.res != nil {
		return eng.w.Chain.AcceptValidated(block, local.res, local.st)
	}
	if hit, ok := eng.view.cache[block.Hash()]; ok && hit.err == nil {
		return eng.w.Chain.AcceptValidated(block, hit.res, hit.st)
	}
	return eng.w.Chain.Accept(block)
}

// wouldValidate predicts whether at least one relay's SubmitBlock would
// reach its execution-validation step for the task's submission: the relay
// must know the builder key, hold a matching proposer registration, and be
// outside its no-validation fault windows. Signature checks are not
// predicted; a submission that would fail one merely wastes its
// pre-validation, it cannot corrupt the cache.
func (eng *slotEngine) wouldValidate(t *buildTask, at time.Time,
	proposerPub types.PubKey, proposerFee types.Address) bool {
	check := func(name string) bool {
		r, ok := eng.w.Relays[name]
		if !ok {
			return false
		}
		if !r.KnowsBuilder(t.sub.Trace.BuilderPubkey) {
			return false
		}
		reg, ok := r.ValidatorRegistration(proposerPub)
		if !ok || reg.FeeRecipient != proposerFee {
			return false
		}
		return r.ValidatesAt(at)
	}
	if t.exploit {
		return check(t.relayOne)
	}
	for _, name := range t.e.Spec.Profile.Relays {
		if check(name) {
			return true
		}
	}
	return false
}
