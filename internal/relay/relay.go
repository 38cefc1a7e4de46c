// Package relay implements MEV-Boost relays: escrow between builders and
// proposers. A relay accepts full blocks from builders, validates them
// (where the paper found it actually did), filters them per its announced
// censorship and MEV policies (with the gaps the paper measured), serves
// the best blinded bid to the registered proposer, and reveals the payload
// only against a signed header.
//
// Relay misbehaviour is implemented as faults in the relay, never in the
// measurement pipeline: value over-promising, disabled validation windows
// (the Manifold 2022-10-15 and Eden block-15,703,347 incidents), and OFAC
// blacklist update lag (Flashbots applying the 2022-11-08 list two days
// late and never applying the 2023-02-01 update).
package relay

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/ethpbs/pbslab/internal/chain"
	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/mev"
	"github.com/ethpbs/pbslab/internal/ofac"
	"github.com/ethpbs/pbslab/internal/pbs"
	"github.com/ethpbs/pbslab/internal/state"
	"github.com/ethpbs/pbslab/internal/types"
)

// Access describes how builders connect to a relay (Table 3).
type Access uint8

// Access modes.
const (
	// AccessInternal relays only carry their own builders' blocks.
	AccessInternal Access = iota
	// AccessInternalExternal relays run builders and vet external ones.
	AccessInternalExternal
	// AccessPermissionless relays accept any builder.
	AccessPermissionless
	// AccessInternalPermissionless relays run a builder and accept anyone
	// (Flashbots).
	AccessInternalPermissionless
)

var accessNames = [...]string{
	"internal", "internal & external", "permissionless", "internal & permissionless",
}

// String implements fmt.Stringer.
func (a Access) String() string {
	if int(a) < len(accessNames) {
		return accessNames[a]
	}
	return "unknown"
}

// Permissionless reports whether arbitrary builders may register.
func (a Access) Permissionless() bool {
	return a == AccessPermissionless || a == AccessInternalPermissionless
}

// Window is a half-open time interval [From, To).
type Window struct {
	From, To time.Time
}

// Contains reports whether t falls in the window.
func (w Window) Contains(t time.Time) bool {
	return !t.Before(w.From) && t.Before(w.To)
}

// Faults models the documented gaps between what relays promise and what
// they do. A zero Faults value is an honest, careful relay.
type Faults struct {
	// NoValueCheck lists windows where the relay did not verify the
	// builder's claimed value against the actual proposer payment.
	NoValueCheck []Window
	// NoBlockValidation lists windows where the relay skipped execution
	// validation entirely (the Manifold incident).
	NoBlockValidation []Window
	// BlacklistApplied overrides when an OFAC update wave (keyed by its
	// designation date, formatted 2006-01-02) was actually enforced.
	// Missing keys follow the day-after-designation rule; a far-future
	// value means the wave was never applied.
	BlacklistApplied map[string]time.Time
	// SandwichFilterCoverage is the effective coverage of the announced
	// front-running filter; the shortfall is the paper's "significant
	// gaps" (2,002 sandwiches through bloXroute Ethical).
	SandwichFilterCoverage float64
	// OverPromiseProb is the per-served-bid probability that the relay
	// announces slightly more value than the block delivers (stale-bid
	// races), with relative size OverPromiseFrac.
	OverPromiseProb float64
	// OverPromiseFrac is the relative inflation of an over-promised bid.
	OverPromiseFrac float64
}

func inWindows(ws []Window, t time.Time) bool {
	for _, w := range ws {
		if w.Contains(t) {
			return true
		}
	}
	return false
}

// Policy is a relay's public configuration (Tables 2 and 3).
type Policy struct {
	Name     string
	Endpoint string
	Fork     string // "MEV Boost" or "Dreamboat"
	Access   Access
	// OFACCompliant relays announce they censor sanctioned transactions.
	OFACCompliant bool
	// MEVFilter relays announce they filter front-running/sandwiches.
	MEVFilter bool
	Faults    Faults
}

// Submission/flow errors.
var (
	ErrUnknownBuilder      = errors.New("relay: builder not registered")
	ErrBuilderNotPermitted = errors.New("relay: builder access denied")
	ErrBadSignature        = errors.New("relay: bad signature")
	ErrUnknownProposer     = errors.New("relay: proposer not registered")
	ErrWrongFeeRecipient   = errors.New("relay: fee recipient does not match registration")
	ErrValidationFailed    = errors.New("relay: block validation failed")
	ErrValueMismatch       = errors.New("relay: claimed value exceeds actual payment")
	ErrCensored            = errors.New("relay: block contains sanctioned transactions")
	ErrMEVFiltered         = errors.New("relay: block contains filtered MEV")
	ErrNoBid               = errors.New("relay: no bid for slot")
	ErrUnknownPayload      = errors.New("relay: no escrowed payload for header")
)

// DeliveredEntry is the relay's record of a payload it handed to a
// proposer, with the value it ANNOUNCED (which is what Table 4 audits).
type DeliveredEntry struct {
	Trace pbs.BidTrace
	At    time.Time
}

// ChainView is the relay's validation interface onto the chain. The
// simulator passes a caching wrapper so a block submitted to several relays
// is executed once.
type ChainView interface {
	Validate(block *types.Block) (*chain.ProcessResult, *state.State, error)
}

// Relay is one running relay instance.
type Relay struct {
	Policy
	chain ChainView
	// blSchedule is the relay's wave-lagged blacklist, precomputed at
	// construction so each submission resolves its sanction set with a
	// binary search.
	blSchedule *ofac.Schedule

	builderVKs map[types.PubKey]crypto.Hash
	internal   map[types.PubKey]bool
	validators map[types.PubKey]pbs.Registration

	subsBySlot map[uint64][]*pbs.Submission
	bestBySlot map[uint64]*pbs.Submission
	byHash     map[types.Hash]*pbs.Submission
	// announced remembers the (possibly inflated) value served per block.
	announced map[types.Hash]types.Wei

	received  []pbs.BidTrace
	delivered []DeliveredEntry
	rejected  int
}

// New creates a relay bound to a chain view (its validation oracle) and the
// global sanctions registry, which it schedules with its own lag
// (p.Faults.BlacklistApplied).
func New(p Policy, c ChainView, sanctions *ofac.Registry) *Relay {
	r := &Relay{
		Policy:     p,
		chain:      c,
		builderVKs: map[types.PubKey]crypto.Hash{},
		internal:   map[types.PubKey]bool{},
		validators: map[types.PubKey]pbs.Registration{},
		subsBySlot: map[uint64][]*pbs.Submission{},
		bestBySlot: map[uint64]*pbs.Submission{},
		byHash:     map[types.Hash]*pbs.Submission{},
		announced:  map[types.Hash]types.Wei{},
	}
	r.blSchedule = ofac.NewSchedule(sanctions, r.appliedAt)
	return r
}

// AllowBuilder registers a builder as vetted by the relay operator
// (internal builders, or externals on invite-only relays).
func (r *Relay) AllowBuilder(pub types.PubKey, vk crypto.Hash) {
	r.builderVKs[pub] = vk
	r.internal[pub] = true
}

// RegisterBuilder handles a builder's own registration request; only
// permissionless relays accept it.
func (r *Relay) RegisterBuilder(pub types.PubKey, vk crypto.Hash) error {
	if !r.Access.Permissionless() {
		return fmt.Errorf("%w: %s requires operator vetting", ErrBuilderNotPermitted, r.Name)
	}
	r.builderVKs[pub] = vk
	return nil
}

// KnowsBuilder reports whether the builder may submit here.
func (r *Relay) KnowsBuilder(pub types.PubKey) bool {
	_, ok := r.builderVKs[pub]
	return ok
}

// RegisterValidator subscribes a proposer to this relay.
func (r *Relay) RegisterValidator(reg pbs.Registration) {
	r.validators[reg.Pubkey] = reg
}

// ValidatorCount returns the number of registered proposers.
func (r *Relay) ValidatorCount() int { return len(r.validators) }

// ValidatorRegistration returns the proposer's registration, if any.
func (r *Relay) ValidatorRegistration(pub types.PubKey) (pbs.Registration, bool) {
	reg, ok := r.validators[pub]
	return reg, ok
}

// ValidatesAt reports whether the relay runs execution validation at time t
// (i.e. t is outside its NoBlockValidation fault windows). The simulator's
// slot engine uses it to pre-validate exactly the blocks its in-order
// commit phase would validate.
func (r *Relay) ValidatesAt(t time.Time) bool {
	return !inWindows(r.Faults.NoBlockValidation, t)
}

// Registrations returns the registered proposers sorted by pubkey — the
// "proposers currently connected to the relay" listing the paper's crawler
// requested from each relay.
func (r *Relay) Registrations() []pbs.Registration {
	out := make([]pbs.Registration, 0, len(r.validators))
	for _, reg := range r.validators {
		out = append(out, reg)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Pubkey.Hex() < out[j].Pubkey.Hex()
	})
	return out
}

// appliedAt resolves when the relay actually starts enforcing a
// designation: the day-after rule, unless the wave has a lag override.
func (r *Relay) appliedAt(d ofac.Designation) time.Time {
	applied := d.Effective()
	waveKey := d.Designated.UTC().Format("2006-01-02")
	if override, ok := r.Faults.BlacklistApplied[waveKey]; ok {
		applied = override
	}
	return applied
}

// BlacklistAt returns the relay's enforced sanction set at time t, honoring
// per-wave application lag. The map is shared and read-only; filtering
// builders aligned with the relay enforce the same set.
func (r *Relay) BlacklistAt(t time.Time) map[types.Address]bool {
	return r.blSchedule.At(t)
}

// touchesSanctioned reports whether any transaction moves value from or to
// a blacklisted address, scanning senders/recipients, execution traces and
// token transfer logs — the paper's detection surface.
func touchesSanctioned(block *types.Block, res *chain.ProcessResult, blacklist map[types.Address]bool) bool {
	if len(blacklist) == 0 {
		return false
	}
	for _, tx := range block.Txs {
		if blacklist[tx.From] || blacklist[tx.To] {
			return true
		}
	}
	if res == nil {
		return false
	}
	for _, tr := range res.Traces {
		if blacklist[tr.From] || blacklist[tr.To] {
			return true
		}
	}
	for _, rcpt := range res.Receipts {
		for _, lg := range rcpt.Logs {
			if len(lg.Topics) == 3 && lg.Topics[0] == topicTransfer {
				from := topicAddr(lg.Topics[1])
				to := topicAddr(lg.Topics[2])
				if blacklist[from] || blacklist[to] {
					return true
				}
			}
		}
	}
	return false
}

// filterCatchesSandwich decides deterministically whether the relay's
// front-running filter spots a given sandwich.
func (r *Relay) filterCatchesSandwich(l mev.Label) bool {
	cov := r.Faults.SandwichFilterCoverage
	if cov >= 1 {
		return true
	}
	if cov <= 0 {
		return false
	}
	h := l.Txs[0]
	digest := crypto.Keccak256([]byte("relay-filter/"+r.Name), h[:])
	draw := float64(uint32(digest[0])<<8|uint32(digest[1])) / 65536
	return draw < cov
}

// SubmitBlock processes one builder submission at wall-clock time at.
func (r *Relay) SubmitBlock(at time.Time, sub *pbs.Submission) error {
	vk, ok := r.builderVKs[sub.Trace.BuilderPubkey]
	if !ok {
		return ErrUnknownBuilder
	}
	if !pbs.VerifySubmission(vk, sub) {
		return ErrBadSignature
	}
	reg, ok := r.validators[sub.Trace.ProposerPubkey]
	if !ok {
		return ErrUnknownProposer
	}
	if reg.FeeRecipient != sub.Trace.ProposerFeeRecipient {
		return ErrWrongFeeRecipient
	}

	validating := !inWindows(r.Faults.NoBlockValidation, at)
	var res *chain.ProcessResult
	if validating {
		var err error
		res, _, err = r.chain.Validate(sub.Block)
		if err != nil {
			r.rejected++
			return fmt.Errorf("%w: %v", ErrValidationFailed, err)
		}
		if !inWindows(r.Faults.NoValueCheck, at) {
			actual := ActualPayment(sub.Block, sub.Trace.ProposerFeeRecipient)
			if actual.Lt(sub.Trace.Value) {
				r.rejected++
				return fmt.Errorf("%w: claimed %s, pays %s", ErrValueMismatch,
					sub.Trace.Value, actual)
			}
		}
	}

	if r.OFACCompliant {
		if touchesSanctioned(sub.Block, res, r.BlacklistAt(at)) {
			r.rejected++
			return ErrCensored
		}
	}

	if r.MEVFilter && res != nil {
		view := mev.BlockView{Number: sub.Block.Number(), Txs: sub.Block.Txs, Receipts: res.Receipts}
		for _, label := range mev.DetectSandwiches(view) {
			if r.filterCatchesSandwich(label) {
				r.rejected++
				return ErrMEVFiltered
			}
		}
	}

	sub.ReceivedAt = at
	slot := sub.Trace.Slot
	r.subsBySlot[slot] = append(r.subsBySlot[slot], sub)
	r.byHash[sub.Trace.BlockHash] = sub
	r.received = append(r.received, sub.Trace)
	best, ok := r.bestBySlot[slot]
	if !ok || sub.Trace.Value.Gt(best.Trace.Value) {
		r.bestBySlot[slot] = sub
	}
	return nil
}

// ActualPayment extracts the proposer payment a block actually carries per
// the PBS convention: the final transaction, sent by the block's fee
// recipient to the proposer's fee recipient.
func ActualPayment(block *types.Block, proposerFeeRecipient types.Address) types.Wei {
	if len(block.Txs) == 0 {
		return types.Wei{}
	}
	last := block.Txs[len(block.Txs)-1]
	if last.From == block.Header.FeeRecipient && last.To == proposerFeeRecipient {
		return last.Value
	}
	return types.Wei{}
}

// GetHeader serves the blinded bid for (slot, proposer), possibly
// over-promising per the relay's faults.
func (r *Relay) GetHeader(slot uint64, proposer types.PubKey) (*pbs.Bid, error) {
	best, ok := r.bestBySlot[slot]
	if !ok || best.Trace.ProposerPubkey != proposer {
		return nil, ErrNoBid
	}
	value := best.Trace.Value
	if r.Faults.OverPromiseProb > 0 {
		h := best.Trace.BlockHash
		digest := crypto.Keccak256([]byte("relay-promise/"+r.Name), h[:])
		draw := float64(uint32(digest[0])<<16|uint32(digest[1])<<8|uint32(digest[2])) / float64(1<<24)
		if draw < r.Faults.OverPromiseProb {
			bump := value.Mul64(uint64(r.Faults.OverPromiseFrac * 1e6)).Div64(1e6)
			value = value.Add(bump)
		}
	}
	r.announced[best.Trace.BlockHash] = value
	return &pbs.Bid{
		Relay:         r.Name,
		Slot:          slot,
		Header:        best.Block.Header,
		Value:         value,
		BlockHash:     best.Trace.BlockHash,
		BuilderPubkey: best.Trace.BuilderPubkey,
	}, nil
}

// GetPayload reveals the escrowed block against a valid signed header and
// records the delivery (with the announced value) for the data API.
func (r *Relay) GetPayload(at time.Time, signed *pbs.SignedBlindedHeader) (*types.Block, error) {
	reg, ok := r.validators[signed.ProposerPubkey]
	if !ok {
		return nil, ErrUnknownProposer
	}
	if !pbs.VerifyBlindedHeader(reg.VerifyKey, signed) {
		return nil, ErrBadSignature
	}
	sub, ok := r.byHash[signed.BlockHash]
	if !ok {
		return nil, ErrUnknownPayload
	}
	trace := sub.Trace
	if v, ok := r.announced[signed.BlockHash]; ok {
		trace.Value = v
	}
	r.delivered = append(r.delivered, DeliveredEntry{Trace: trace, At: at})
	return sub.Block, nil
}

// Delivered returns the relay's proposer_payload_delivered records.
func (r *Relay) Delivered() []DeliveredEntry { return r.delivered }

// Received returns the relay's builder_blocks_received records.
func (r *Relay) Received() []pbs.BidTrace { return r.received }

// Rejected returns how many submissions the relay refused.
func (r *Relay) Rejected() int { return r.rejected }

// BuildersSeen returns the distinct builder pubkeys that submitted in
// [fromSlot, toSlot], sorted; Figure 7's builders-per-relay series
// aggregates this per day.
func (r *Relay) BuildersSeen(fromSlot, toSlot uint64) []types.PubKey {
	seen := map[types.PubKey]bool{}
	for _, tr := range r.received {
		if tr.Slot >= fromSlot && tr.Slot <= toSlot {
			seen[tr.BuilderPubkey] = true
		}
	}
	out := make([]types.PubKey, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hex() < out[j].Hex() })
	return out
}

// Records is the serializable durable state of a relay: proposer
// registrations plus the data-API ledgers. Per-slot escrow is deliberately
// absent — it only lives for two slots (PruneSlot) and checkpoints are
// taken at day boundaries, where auctions of past slots can never be read
// again. Builder keys are not captured either; they are re-derived from the
// scenario on restore.
type Records struct {
	Validators []pbs.Registration
	Received   []pbs.BidTrace
	Delivered  []DeliveredEntry
	Rejected   int
}

// ExportRecords snapshots the relay's durable state for a checkpoint.
func (r *Relay) ExportRecords() Records {
	return Records{
		Validators: r.Registrations(),
		Received:   append([]pbs.BidTrace(nil), r.received...),
		Delivered:  append([]DeliveredEntry(nil), r.delivered...),
		Rejected:   r.rejected,
	}
}

// RestoreRecords replaces the relay's durable state from a checkpoint.
func (r *Relay) RestoreRecords(rec Records) {
	r.validators = make(map[types.PubKey]pbs.Registration, len(rec.Validators))
	for _, reg := range rec.Validators {
		r.validators[reg.Pubkey] = reg
	}
	r.received = append([]pbs.BidTrace(nil), rec.Received...)
	r.delivered = append([]DeliveredEntry(nil), rec.Delivered...)
	r.rejected = rec.Rejected
}

// PruneSlot drops per-slot escrow older than the given slot, bounding
// memory across long simulations. API records are retained.
func (r *Relay) PruneSlot(olderThan uint64) {
	for slot, subs := range r.subsBySlot {
		if slot >= olderThan {
			continue
		}
		for _, s := range subs {
			delete(r.byHash, s.Trace.BlockHash)
			delete(r.announced, s.Trace.BlockHash)
		}
		delete(r.subsBySlot, slot)
		delete(r.bestBySlot, slot)
	}
}

// Transfer topic handling without importing defi (avoids a dependency
// cycle risk and keeps relay filtering self-contained).
var topicTransfer = crypto.Keccak256([]byte("Transfer(address,address,uint256)"))

func topicAddr(h types.Hash) types.Address {
	var a types.Address
	copy(a[:], h[12:])
	return a
}
