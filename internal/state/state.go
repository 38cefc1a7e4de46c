// Package state holds the execution-layer world state: native ETH balances,
// account nonces, and per-contract storage slots (token balances, AMM
// reserves, lending positions, oracle prices all live here).
//
// Keeping *all* mutable chain state in one copyable structure is what makes
// speculative execution work: builders simulate candidate blocks and bundles
// against a Copy or Fork of the canonical state and only the canonical chain
// applies the winner, exactly as real block builders run simulations against
// a forked StateDB.
//
// The hot path allocates nothing and holds no pointers the collector has to
// scan: storage slots are fixed-size typed keys, undo-journal entries are
// plain values, and an Arena recycles the maps and journals of short-lived
// forks instead of letting every speculative execution grow fresh ones.
package state

import (
	"fmt"
	"sync"

	"github.com/ethpbs/pbslab/internal/types"
	"github.com/ethpbs/pbslab/internal/u256"
)

// Key kinds: the storage layouts the DeFi contracts use. The first three are
// one cell per contract; the rest hold one cell per holder address.
const (
	KindReserve0 uint8 = iota + 1 // AMM reserve of token0
	KindReserve1                  // AMM reserve of token1
	KindPrice                     // lending oracle price
	KindBal                       // token balance of Holder
	KindColl                      // lending collateral of Holder
	KindDebt                      // lending debt of Holder
)

// kindNames renders each kind the way storage keys were spelled when they
// were strings, so error messages read as they always have.
var kindNames = [...]string{
	KindReserve0: "r0",
	KindReserve1: "r1",
	KindPrice:    "price",
	KindBal:      "bal",
	KindColl:     "coll",
	KindDebt:     "debt",
}

// Key names one storage cell within a contract: a kind, plus the holder for
// per-holder kinds (the zero address otherwise). It is a fixed-size value,
// so slot maps hash bytes instead of strings and hold no pointers.
type Key struct {
	Kind   uint8
	Holder types.Address
}

// String renders the key as "r0", "price" or "bal:0x<holder>".
func (k Key) String() string {
	var name string
	if int(k.Kind) < len(kindNames) {
		name = kindNames[k.Kind]
	}
	if name == "" {
		name = fmt.Sprintf("kind%d", k.Kind)
	}
	if k.Kind >= KindBal {
		return name + ":" + k.Holder.Hex()
	}
	return name
}

// Slot identifies one storage cell within a contract.
type Slot struct {
	Contract types.Address
	Key      Key
}

// State is the mutable world state. It is not safe for concurrent use; each
// goroutine works on its own Copy or Fork.
//
// State supports cheap speculative execution through an undo journal:
// Snapshot marks a point, RevertTo unwinds every mutation since. Builders
// lean on this when trying bundles — a failing bundle is rolled back in
// O(mutations) instead of re-copying the world.
type State struct {
	balances map[types.Address]types.Wei
	nonces   map[types.Address]uint64
	storage  map[Slot]u256.Int
	journal  []undo
	// base, when non-nil, makes this state a copy-on-write fork: reads fall
	// through to base for keys the fork has not written, and all mutations
	// land in the fork's own maps (zero storage writes become tombstones so
	// deletions shadow the base). The base must not be mutated while forks
	// of it are alive; concurrent forks may then read it safely.
	base *State
	// reclaimed marks a fork its Arena has taken back: every use panics
	// until the arena hands it out again.
	reclaimed bool
}

// undo is one reversible mutation. It holds no pointers, so journals cost
// the collector nothing to scan.
type undo struct {
	kind    uint8
	present bool     // previous key existed
	slot    Slot     // balance and nonce entries keep the account in slot.Contract
	prev    u256.Int // previous value; a nonce lives in prev[0]
}

const (
	undoBalance = iota
	undoNonce
	undoStorage
)

// New returns an empty state.
func New() *State {
	return &State{
		balances: map[types.Address]types.Wei{},
		nonces:   map[types.Address]uint64{},
		storage:  map[Slot]u256.Int{},
	}
}

// live panics when s is a fork its arena has reclaimed.
func (s *State) live() {
	if s.reclaimed {
		panic("state: use of a fork after its arena was reclaimed")
	}
}

// Snapshot marks the current mutation point for RevertTo.
func (s *State) Snapshot() int {
	s.live()
	return len(s.journal)
}

// RevertTo unwinds every mutation made after the given snapshot.
func (s *State) RevertTo(snap int) {
	s.live()
	for i := len(s.journal) - 1; i >= snap; i-- {
		u := &s.journal[i]
		switch u.kind {
		case undoBalance:
			if u.present {
				s.balances[u.slot.Contract] = u.prev
			} else {
				delete(s.balances, u.slot.Contract)
			}
		case undoNonce:
			if u.present {
				s.nonces[u.slot.Contract] = u.prev[0]
			} else {
				delete(s.nonces, u.slot.Contract)
			}
		case undoStorage:
			if u.present {
				s.storage[u.slot] = u.prev
			} else {
				delete(s.storage, u.slot)
			}
		}
	}
	s.journal = s.journal[:snap]
}

// ClearJournal drops undo history (mutations become permanent). Callers do
// this after committing a block so journals do not grow without bound; the
// backing array is kept for the next block.
func (s *State) ClearJournal() {
	s.live()
	s.journal = s.journal[:0]
}

func (s *State) noteBalance(addr types.Address) {
	s.live()
	prev, ok := s.balances[addr]
	s.journal = append(s.journal, undo{kind: undoBalance, present: ok, slot: Slot{Contract: addr}, prev: prev})
}

func (s *State) noteNonce(addr types.Address) {
	s.live()
	prev, ok := s.nonces[addr]
	s.journal = append(s.journal, undo{kind: undoNonce, present: ok, slot: Slot{Contract: addr}, prev: u256.Int{prev}})
}

func (s *State) noteStorage(sl Slot) {
	s.live()
	prev, ok := s.storage[sl]
	s.journal = append(s.journal, undo{kind: undoStorage, present: ok, slot: sl, prev: prev})
}

// Copy returns a deep copy sharing nothing with the receiver. Copying a
// fork flattens it: the result is a plain state holding the merged view.
func (s *State) Copy() *State {
	c := &State{
		balances: make(map[types.Address]types.Wei, len(s.balances)),
		nonces:   make(map[types.Address]uint64, len(s.nonces)),
		storage:  make(map[Slot]u256.Int, len(s.storage)),
	}
	s.flattenInto(c)
	return c
}

// flattenInto layers s (base first, then the fork's writes) into c.
func (s *State) flattenInto(c *State) {
	s.live()
	if s.base != nil {
		s.base.flattenInto(c)
	}
	for a, v := range s.balances {
		c.balances[a] = v
	}
	for a, v := range s.nonces {
		c.nonces[a] = v
	}
	for k, v := range s.storage {
		if v.IsZero() {
			delete(c.storage, k) // tombstone: the fork deleted a base slot
		} else {
			c.storage[k] = v
		}
	}
}

// AbsorbFork folds a fork's writes back into its base in place: the commit
// half of the fork workflow. ValidateFork executes a block against an O(1)
// fork; absorbing the fork afterwards yields the post-block canonical state
// in O(touched keys) instead of the O(accounts) deep copy a Copy-based
// commit pays. f must be a direct fork of s. Absorbing invalidates every
// other live fork of s — their reads would now see post-block values — so
// callers only absorb at the end of a slot round, after all speculative
// forks are dead. The absorbed writes are not journalled; callers commit at
// block boundaries where the journal is cleared anyway.
func (s *State) AbsorbFork(f *State) error {
	f.live()
	if f.base != s {
		return fmt.Errorf("state: AbsorbFork of a state that is not a direct fork of the receiver")
	}
	for a, v := range f.balances {
		s.balances[a] = v
	}
	for a, v := range f.nonces {
		s.nonces[a] = v
	}
	for k, v := range f.storage {
		if v.IsZero() {
			delete(s.storage, k) // tombstone: the fork deleted a base slot
		} else {
			s.storage[k] = v
		}
	}
	return nil
}

// Arena hands out forks whose maps and journals are recycled in bulk. The
// parallel slot engine takes every speculative fork of a slot round from
// one arena and reclaims them all at one point, after the round's winner
// has been absorbed into the canonical state: reclaiming clears each fork's
// maps and journal in place, so the next round's forks reuse their buckets
// and backing arrays instead of growing fresh ones. Fork is safe to call
// from several goroutines; Reclaim must not race with Fork or with any use
// of the arena's forks. The zero Arena is ready to use.
type Arena struct {
	mu   sync.Mutex
	live []*State // handed out since the last Reclaim
	free []*State // cleared, ready to hand out
}

// Fork returns a copy-on-write view of base in O(1): reads fall through to
// base until the fork writes a key, and every mutation stays in the fork.
// base must stay unmutated while the fork is alive, which also makes
// several forks of one base safe to use from different goroutines. The
// fork stays valid until the arena's next Reclaim; any use after that
// panics.
func (a *Arena) Fork(base *State) *State {
	base.live()
	a.mu.Lock()
	defer a.mu.Unlock()
	var f *State
	if n := len(a.free); n > 0 {
		f = a.free[n-1]
		a.free = a.free[:n-1]
		f.reclaimed = false
	} else {
		f = New()
	}
	f.base = base
	a.live = append(a.live, f)
	return f
}

// Reclaim takes back every fork handed out since the last Reclaim. Their
// maps and journals are cleared in place for reuse, and each is marked so
// that any later use through a stale reference panics instead of silently
// reading an empty state.
func (a *Arena) Reclaim() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, f := range a.live {
		clear(f.balances)
		clear(f.nonces)
		clear(f.storage)
		f.journal = f.journal[:0]
		f.base = nil
		f.reclaimed = true
	}
	a.free = append(a.free, a.live...)
	clear(a.live)
	a.live = a.live[:0]
}

// Export returns a deep snapshot of the state for checkpointing. The
// journal is not captured: checkpoints are taken at block boundaries where
// it is empty (ClearJournal runs after every Accept). Forks are flattened.
func (s *State) Export() Snapshot {
	s.live()
	flat := s
	if s.base != nil {
		flat = s.Copy()
	}
	sn := Snapshot{
		Balances: make(map[types.Address]types.Wei, len(flat.balances)),
		Nonces:   make(map[types.Address]uint64, len(flat.nonces)),
		Storage:  make(map[Slot]u256.Int, len(flat.storage)),
	}
	for a, v := range flat.balances {
		sn.Balances[a] = v
	}
	for a, v := range flat.nonces {
		sn.Nonces[a] = v
	}
	for k, v := range flat.storage {
		sn.Storage[k] = v
	}
	return sn
}

// FromSnapshot reconstructs a state from an exported snapshot.
func FromSnapshot(sn Snapshot) *State {
	s := New()
	for a, v := range sn.Balances {
		s.balances[a] = v
	}
	for a, v := range sn.Nonces {
		s.nonces[a] = v
	}
	for k, v := range sn.Storage {
		s.storage[k] = v
	}
	return s
}

// Snapshot is a serializable deep copy of a State, used by simulation
// checkpoints. All fields are exported so encoding/gob can round-trip it.
type Snapshot struct {
	Balances map[types.Address]types.Wei
	Nonces   map[types.Address]uint64
	Storage  map[Slot]u256.Int
}

// Balance returns the native balance of addr (zero for unknown accounts).
// The len guards skip hashing the key against empty fork maps: speculative
// probes revert their writes, so a fork's own maps are empty most of the
// time while its base holds the whole world.
func (s *State) Balance(addr types.Address) types.Wei {
	if len(s.balances) > 0 {
		if v, ok := s.balances[addr]; ok {
			return v
		}
	}
	if s.base != nil {
		return s.base.Balance(addr)
	}
	s.live()
	return types.Wei{}
}

// SetBalance overwrites the native balance of addr. Genesis funding only;
// transaction execution must use Credit/Transfer for conservation.
func (s *State) SetBalance(addr types.Address, v types.Wei) {
	s.noteBalance(addr)
	s.balances[addr] = v
}

// Credit adds v to addr's balance.
func (s *State) Credit(addr types.Address, v types.Wei) {
	cur := s.Balance(addr)
	s.noteBalance(addr)
	s.balances[addr] = cur.Add(v)
}

// Debit subtracts v from addr's balance, failing without mutation when the
// balance is insufficient.
func (s *State) Debit(addr types.Address, v types.Wei) error {
	bal := s.Balance(addr)
	if bal.Lt(v) {
		return fmt.Errorf("state: insufficient balance at %s: have %s, need %s", addr, bal, v)
	}
	s.noteBalance(addr)
	s.balances[addr] = bal.Sub(v)
	return nil
}

// Transfer moves v from one account to another atomically.
func (s *State) Transfer(from, to types.Address, v types.Wei) error {
	if err := s.Debit(from, v); err != nil {
		return err
	}
	s.Credit(to, v)
	return nil
}

// Nonce returns the next expected nonce for addr.
func (s *State) Nonce(addr types.Address) uint64 {
	if len(s.nonces) > 0 {
		if n, ok := s.nonces[addr]; ok {
			return n
		}
	}
	if s.base != nil {
		return s.base.Nonce(addr)
	}
	s.live()
	return 0
}

// SetNonce overwrites the nonce; for genesis/test setup.
func (s *State) SetNonce(addr types.Address, n uint64) {
	s.noteNonce(addr)
	s.nonces[addr] = n
}

// IncNonce advances addr's nonce by one.
func (s *State) IncNonce(addr types.Address) {
	cur := s.Nonce(addr)
	s.noteNonce(addr)
	s.nonces[addr] = cur + 1
}

// Get reads a storage slot (zero when unset).
func (s *State) Get(contract types.Address, key Key) u256.Int {
	if len(s.storage) > 0 {
		if v, ok := s.storage[Slot{contract, key}]; ok {
			return v
		}
	}
	if s.base != nil {
		return s.base.Get(contract, key)
	}
	s.live()
	return u256.Int{}
}

// Set writes a storage slot. Writing zero deletes the slot, keeping Copy
// costs proportional to live state; in a fork the zero is stored as a
// tombstone instead so the deletion shadows the base.
func (s *State) Set(contract types.Address, key Key, v u256.Int) {
	sl := Slot{contract, key}
	s.noteStorage(sl)
	if v.IsZero() && s.base == nil {
		delete(s.storage, sl)
		return
	}
	s.storage[sl] = v
}

// AddTo adds v to a storage slot interpreted as an amount.
func (s *State) AddTo(contract types.Address, key Key, v u256.Int) {
	s.Set(contract, key, s.Get(contract, key).Add(v))
}

// SubFrom subtracts v from a storage slot, failing without mutation when the
// stored amount is insufficient.
func (s *State) SubFrom(contract types.Address, key Key, v u256.Int) error {
	cur := s.Get(contract, key)
	if cur.Lt(v) {
		return fmt.Errorf("state: slot %s/%s underflow: have %s, need %s", contract, key, cur, v)
	}
	s.Set(contract, key, cur.Sub(v))
	return nil
}

// TotalSupply sums all native balances; conservation checks in tests use it.
func (s *State) TotalSupply() types.Wei {
	if s.base != nil {
		return s.Copy().TotalSupply()
	}
	s.live()
	total := u256.Zero
	for _, v := range s.balances {
		total = total.Add(v)
	}
	return total
}

// Accounts returns the number of accounts with non-zero balance or nonce.
func (s *State) Accounts() int {
	if s.base != nil {
		return s.Copy().Accounts()
	}
	s.live()
	seen := map[types.Address]bool{}
	for a, v := range s.balances {
		if !v.IsZero() {
			seen[a] = true
		}
	}
	for a, n := range s.nonces {
		if n > 0 {
			seen[a] = true
		}
	}
	return len(seen)
}
