package state

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/types"
	"github.com/ethpbs/pbslab/internal/u256"
)

var (
	alice = crypto.AddressFromSeed("alice")
	bob   = crypto.AddressFromSeed("bob")
	pool  = crypto.AddressFromSeed("pool")

	r0       = Key{Kind: KindReserve0}
	r1       = Key{Kind: KindReserve1}
	price    = Key{Kind: KindPrice}
	aliceBal = Key{Kind: KindBal, Holder: alice}
)

func TestBalances(t *testing.T) {
	s := New()
	if !s.Balance(alice).IsZero() {
		t.Error("fresh account has balance")
	}
	s.Credit(alice, types.Ether(2))
	if got := s.Balance(alice); got != types.Ether(2) {
		t.Errorf("balance = %s", got)
	}
	if err := s.Debit(alice, types.Ether(3)); err == nil {
		t.Error("overdraft allowed")
	}
	if got := s.Balance(alice); got != types.Ether(2) {
		t.Error("failed debit mutated balance")
	}
	if err := s.Debit(alice, types.Ether(1)); err != nil {
		t.Fatal(err)
	}
	if got := s.Balance(alice); got != types.Ether(1) {
		t.Errorf("after debit: %s", got)
	}
}

func TestTransferConservation(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(10))
	before := s.TotalSupply()
	if err := s.Transfer(alice, bob, types.Ether(4)); err != nil {
		t.Fatal(err)
	}
	if s.TotalSupply() != before {
		t.Error("transfer changed total supply")
	}
	if s.Balance(bob) != types.Ether(4) {
		t.Error("recipient not credited")
	}
	if err := s.Transfer(bob, alice, types.Ether(5)); err == nil {
		t.Error("transfer exceeding balance allowed")
	}
	if s.TotalSupply() != before {
		t.Error("failed transfer changed supply")
	}
}

func TestNonces(t *testing.T) {
	s := New()
	if s.Nonce(alice) != 0 {
		t.Error("fresh nonce not zero")
	}
	s.IncNonce(alice)
	s.IncNonce(alice)
	if s.Nonce(alice) != 2 {
		t.Errorf("nonce = %d", s.Nonce(alice))
	}
	s.SetNonce(alice, 10)
	if s.Nonce(alice) != 10 {
		t.Error("SetNonce ignored")
	}
}

func TestStorage(t *testing.T) {
	s := New()
	if !s.Get(pool, r0).IsZero() {
		t.Error("unset slot not zero")
	}
	s.Set(pool, r0, u256.New(1000))
	if got := s.Get(pool, r0); got != u256.New(1000) {
		t.Errorf("slot = %s", got)
	}
	s.AddTo(pool, r0, u256.New(500))
	if got := s.Get(pool, r0); got != u256.New(1500) {
		t.Errorf("AddTo = %s", got)
	}
	if err := s.SubFrom(pool, r0, u256.New(2000)); err == nil {
		t.Error("slot underflow allowed")
	}
	if err := s.SubFrom(pool, r0, u256.New(1500)); err != nil {
		t.Fatal(err)
	}
	if !s.Get(pool, r0).IsZero() {
		t.Error("slot not zeroed")
	}
}

func TestZeroSlotDeleted(t *testing.T) {
	s := New()
	s.Set(pool, aliceBal, u256.New(1))
	s.Set(pool, aliceBal, u256.Zero)
	if len(s.storage) != 0 {
		t.Error("zero write left a live slot")
	}
}

func TestCopyIsolation(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(1))
	s.SetNonce(alice, 5)
	s.Set(pool, r0, u256.New(42))

	c := s.Copy()
	c.Credit(alice, types.Ether(1))
	c.IncNonce(alice)
	c.Set(pool, r0, u256.New(99))
	c.Set(pool, r1, u256.New(7))

	if s.Balance(alice) != types.Ether(1) {
		t.Error("copy mutation leaked into balance")
	}
	if s.Nonce(alice) != 5 {
		t.Error("copy mutation leaked into nonce")
	}
	if s.Get(pool, r0) != u256.New(42) {
		t.Error("copy mutation leaked into storage")
	}
	if !s.Get(pool, r1).IsZero() {
		t.Error("copy addition leaked into storage")
	}
	// And the original keeps serving the copy's pre-mutation values.
	if c.Balance(alice) != types.Ether(2) || c.Nonce(alice) != 6 {
		t.Error("copy lost its own mutations")
	}
}

func TestAccounts(t *testing.T) {
	s := New()
	if s.Accounts() != 0 {
		t.Error("fresh state has accounts")
	}
	s.SetBalance(alice, types.Ether(1))
	s.IncNonce(bob)
	if got := s.Accounts(); got != 2 {
		t.Errorf("Accounts = %d", got)
	}
	// An account that is both funded and used counts once.
	s.IncNonce(alice)
	if got := s.Accounts(); got != 2 {
		t.Errorf("Accounts after overlap = %d", got)
	}
}

func BenchmarkCopy(b *testing.B) {
	s := New()
	for i := 0; i < 1000; i++ {
		s.SetBalance(crypto.AddressFromSeed(string(rune(i))), types.Ether(1))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Copy()
	}
}

func TestSnapshotRevert(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(5))
	s.SetNonce(alice, 1)
	s.Set(pool, r0, u256.New(100))
	s.ClearJournal()

	snap := s.Snapshot()
	s.Credit(alice, types.Ether(3))
	s.IncNonce(alice)
	s.Set(pool, r0, u256.New(999))
	s.Set(pool, r1, u256.New(7))
	s.SetBalance(bob, types.Ether(1))

	s.RevertTo(snap)
	if s.Balance(alice) != types.Ether(5) {
		t.Errorf("balance after revert = %s", s.Balance(alice))
	}
	if s.Nonce(alice) != 1 {
		t.Errorf("nonce after revert = %d", s.Nonce(alice))
	}
	if s.Get(pool, r0) != u256.New(100) {
		t.Errorf("slot after revert = %s", s.Get(pool, r0))
	}
	if !s.Get(pool, r1).IsZero() {
		t.Error("new slot survived revert")
	}
	if !s.Balance(bob).IsZero() {
		t.Error("new account survived revert")
	}
}

func TestNestedSnapshots(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(1))
	snap1 := s.Snapshot()
	s.Credit(alice, types.Ether(1)) // 2
	snap2 := s.Snapshot()
	s.Credit(alice, types.Ether(1)) // 3

	s.RevertTo(snap2)
	if s.Balance(alice) != types.Ether(2) {
		t.Errorf("after inner revert: %s", s.Balance(alice))
	}
	s.RevertTo(snap1)
	if s.Balance(alice) != types.Ether(1) {
		t.Errorf("after outer revert: %s", s.Balance(alice))
	}
}

func TestRevertAfterDelete(t *testing.T) {
	s := New()
	s.Set(pool, aliceBal, u256.New(5))
	snap := s.Snapshot()
	s.Set(pool, aliceBal, u256.Zero) // deletes the slot
	s.RevertTo(snap)
	if s.Get(pool, aliceBal) != u256.New(5) {
		t.Error("deleted slot not restored")
	}
}

func TestCopyDropsJournal(t *testing.T) {
	s := New()
	snapBefore := s.Snapshot()
	s.SetBalance(alice, types.Ether(1))
	c := s.Copy()
	if c.Snapshot() != 0 {
		t.Error("copy inherited journal")
	}
	// Reverting the copy to 0 must not undo inherited state.
	c.Credit(alice, types.Ether(1))
	c.RevertTo(0)
	if c.Balance(alice) != types.Ether(1) {
		t.Errorf("copy revert corrupted inherited state: %s", c.Balance(alice))
	}
	_ = snapBefore
}

func TestForkReadsFallThrough(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(5))
	s.SetNonce(alice, 3)
	s.Set(pool, r0, u256.New(100))

	f := new(Arena).Fork(s)
	if f.Balance(alice) != types.Ether(5) {
		t.Errorf("fork balance = %s", f.Balance(alice))
	}
	if f.Nonce(alice) != 3 {
		t.Errorf("fork nonce = %d", f.Nonce(alice))
	}
	if f.Get(pool, r0) != u256.New(100) {
		t.Errorf("fork slot = %s", f.Get(pool, r0))
	}
}

func TestForkWritesIsolated(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(5))
	s.SetNonce(alice, 1)
	s.Set(pool, r0, u256.New(100))

	f := new(Arena).Fork(s)
	f.Credit(alice, types.Ether(1))
	f.IncNonce(alice)
	f.Set(pool, r0, u256.New(999))
	f.Set(pool, r1, u256.New(7))
	if err := f.Debit(bob, types.Ether(1)); err == nil {
		t.Error("fork overdraft allowed")
	}

	if s.Balance(alice) != types.Ether(5) || s.Nonce(alice) != 1 {
		t.Error("fork mutation leaked into base account")
	}
	if s.Get(pool, r0) != u256.New(100) || !s.Get(pool, r1).IsZero() {
		t.Error("fork mutation leaked into base storage")
	}
	if f.Balance(alice) != types.Ether(6) || f.Nonce(alice) != 2 {
		t.Error("fork lost its own mutations")
	}
}

func TestForkDeleteShadowsBase(t *testing.T) {
	s := New()
	s.Set(pool, aliceBal, u256.New(5))
	f := new(Arena).Fork(s)
	f.Set(pool, aliceBal, u256.Zero)
	if !f.Get(pool, aliceBal).IsZero() {
		t.Error("fork delete fell through to base")
	}
	if s.Get(pool, aliceBal) != u256.New(5) {
		t.Error("fork delete mutated base")
	}
	// Flattening honours the tombstone.
	if !f.Copy().Get(pool, aliceBal).IsZero() {
		t.Error("flattened copy resurrected deleted slot")
	}
}

func TestForkSnapshotRevert(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(5))
	s.Set(pool, r0, u256.New(100))

	f := new(Arena).Fork(s)
	f.Credit(alice, types.Ether(1))
	snap := f.Snapshot()
	f.Credit(alice, types.Ether(1))
	f.Set(pool, r0, u256.Zero)
	f.Set(pool, r1, u256.New(9))
	f.IncNonce(bob)

	f.RevertTo(snap)
	if f.Balance(alice) != types.Ether(6) {
		t.Errorf("fork balance after revert = %s", f.Balance(alice))
	}
	if f.Get(pool, r0) != u256.New(100) {
		t.Errorf("fork slot after revert = %s", f.Get(pool, r0))
	}
	if !f.Get(pool, r1).IsZero() || f.Nonce(bob) != 0 {
		t.Error("fork revert left stray writes")
	}
}

// TestForkMatchesCopy drives an identical mutation sequence through a deep
// copy and a fork and checks the flattened views agree — the equivalence
// the parallel slot engine relies on.
func TestForkMatchesCopy(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(10))
	s.SetBalance(bob, types.Ether(3))
	s.Set(pool, r0, u256.New(1000))
	s.Set(pool, r1, u256.New(2000))

	mutate := func(st *State) {
		if err := st.Transfer(alice, bob, types.Ether(2)); err != nil {
			t.Fatal(err)
		}
		st.IncNonce(alice)
		st.AddTo(pool, r0, u256.New(77))
		if err := st.SubFrom(pool, r1, u256.New(2000)); err != nil {
			t.Fatal(err)
		}
		st.Set(pool, price, u256.New(5))
	}
	c, f := s.Copy(), new(Arena).Fork(s)
	mutate(c)
	mutate(f)

	ff := f.Copy() // flatten
	for _, a := range []types.Address{alice, bob, pool} {
		if c.Balance(a) != ff.Balance(a) {
			t.Errorf("balance %s: copy %s, fork %s", a, c.Balance(a), ff.Balance(a))
		}
		if c.Nonce(a) != ff.Nonce(a) {
			t.Errorf("nonce %s differs", a)
		}
	}
	for _, k := range []Key{r0, r1, price} {
		if c.Get(pool, k) != ff.Get(pool, k) {
			t.Errorf("slot %s: copy %s, fork %s", k, c.Get(pool, k), ff.Get(pool, k))
		}
	}
	if c.TotalSupply() != f.TotalSupply() {
		t.Error("supply differs between copy and fork")
	}
	if c.Accounts() != f.Accounts() {
		t.Error("accounts differ between copy and fork")
	}
}

// TestAbsorbFork proves the commit half of the fork workflow: absorbing a
// mutated fork into its base yields exactly the state a Copy-flatten of
// the fork would, including tombstoned deletions, and a fork of a
// different base is rejected.
func TestAbsorbFork(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(10))
	s.SetBalance(bob, types.Ether(3))
	s.Set(pool, r0, u256.New(1000))
	s.Set(pool, r1, u256.New(2000))

	f := new(Arena).Fork(s)
	if err := f.Transfer(alice, bob, types.Ether(2)); err != nil {
		t.Fatal(err)
	}
	f.IncNonce(alice)
	f.AddTo(pool, r0, u256.New(77))
	if err := f.SubFrom(pool, r1, u256.New(2000)); err != nil { // tombstone
		t.Fatal(err)
	}
	f.Set(pool, price, u256.New(5))

	want := f.Copy() // flatten before absorbing mutates the base
	if err := s.AbsorbFork(new(Arena).Fork(s)); err != nil {
		t.Fatalf("absorb of empty fork: %v", err)
	}
	if err := s.AbsorbFork(f); err != nil {
		t.Fatalf("absorb: %v", err)
	}
	for _, a := range []types.Address{alice, bob} {
		if s.Balance(a) != want.Balance(a) {
			t.Errorf("balance %s: absorbed %s, want %s", a, s.Balance(a), want.Balance(a))
		}
		if s.Nonce(a) != want.Nonce(a) {
			t.Errorf("nonce %s differs", a)
		}
	}
	for _, k := range []Key{r0, r1, price} {
		if s.Get(pool, k) != want.Get(pool, k) {
			t.Errorf("slot %s: absorbed %s, want %s", k, s.Get(pool, k), want.Get(pool, k))
		}
	}
	if _, ok := s.storage[Slot{pool, r1}]; ok {
		t.Error("tombstoned slot survived absorb as a live entry")
	}
	if err := New().AbsorbFork(new(Arena).Fork(s)); err == nil {
		t.Error("absorbing a fork of a different base must fail")
	}
}

// TestConcurrentForksShareBase takes forks of one base from one arena on
// several goroutines, as the slot engine's build and validate phases do,
// over several reclaimed rounds. Run under -race: reads fall through to
// shared maps, writes stay private, and reclaimed forks are handed out
// again safely.
func TestConcurrentForksShareBase(t *testing.T) {
	s := New()
	for i := 0; i < 64; i++ {
		s.SetBalance(crypto.AddressFromSeed("acct/"+string(rune('a'+i))), types.Ether(1))
	}
	s.Set(pool, r0, u256.New(500))
	var a Arena
	for round := 0; round < 5; round++ {
		done := make(chan error, 8)
		for g := 0; g < 8; g++ {
			go func(g int) {
				for i := 0; i < 10; i++ {
					f := a.Fork(s)
					for j := 0; j <= g; j++ {
						f.Credit(alice, types.Ether(1))
						f.AddTo(pool, r0, u256.New(1))
						_ = f.Balance(crypto.AddressFromSeed("acct/b"))
					}
					if f.Get(pool, r0) != u256.New(uint64(501+g)) || f.Balance(alice) != types.Ether(float64(1+g)) {
						done <- fmt.Errorf("round %d goroutine %d: fork state corrupted", round, g)
						return
					}
				}
				done <- nil
			}(g)
		}
		for g := 0; g < 8; g++ {
			if err := <-done; err != nil {
				t.Error(err)
			}
		}
		a.Reclaim()
	}
	if s.Get(pool, r0) != u256.New(500) {
		t.Error("base mutated by forks")
	}
}

func BenchmarkFork(b *testing.B) {
	s := New()
	for i := 0; i < 1000; i++ {
		s.SetBalance(crypto.AddressFromSeed(string(rune(i))), types.Ether(1))
	}
	var a Arena
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Fork(s).Credit(alice, types.Ether(1))
		a.Reclaim()
	}
}

// mutateFork drives one fork through the writes a speculative execution
// makes: balances, nonces and storage, some reverted and some kept.
func mutateFork(f *State) {
	snap := f.Snapshot()
	f.Credit(alice, types.Ether(1))
	f.IncNonce(alice)
	f.Set(pool, r0, u256.New(7))
	f.AddTo(pool, aliceBal, u256.New(3))
	f.RevertTo(snap)
	f.Credit(bob, types.Ether(2))
	f.Set(pool, r1, u256.Zero) // tombstone
}

// TestArenaReclaimReusesForks: a reclaimed fork comes back from the arena
// with the same maps and journal array, cleared, and reading through to the
// new base.
func TestArenaReclaimReusesForks(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(5))
	s.Set(pool, r1, u256.New(9))
	var a Arena
	f := a.Fork(s)
	mutateFork(f)
	for i := 0; i < 100; i++ {
		f.Set(pool, Key{Kind: KindBal, Holder: crypto.AddressFromSeed(fmt.Sprint(i))}, u256.New(1))
	}
	maps := []uintptr{reflect.ValueOf(f.balances).Pointer(), reflect.ValueOf(f.nonces).Pointer(), reflect.ValueOf(f.storage).Pointer()}
	journal := cap(f.journal)
	a.Reclaim()

	s2 := New()
	s2.SetBalance(alice, types.Ether(8))
	g := a.Fork(s2)
	if g != f {
		t.Fatal("arena allocated a new fork instead of reusing the reclaimed one")
	}
	got := []uintptr{reflect.ValueOf(g.balances).Pointer(), reflect.ValueOf(g.nonces).Pointer(), reflect.ValueOf(g.storage).Pointer()}
	if !reflect.DeepEqual(got, maps) {
		t.Error("reclaimed fork's maps were replaced, not reused")
	}
	if len(g.balances)+len(g.nonces)+len(g.storage) != 0 || len(g.journal) != 0 {
		t.Error("reclaimed fork kept writes from its previous life")
	}
	if cap(g.journal) != journal {
		t.Errorf("journal capacity %d, want the reused %d", cap(g.journal), journal)
	}
	if g.Balance(alice) != types.Ether(8) || !g.Get(pool, r1).IsZero() || !g.Balance(bob).IsZero() {
		t.Error("reused fork does not read through to its new base")
	}
}

// TestArenaUseAfterReclaimPanics: every read, write and derivation through a
// stale reference to a reclaimed fork panics.
func TestArenaUseAfterReclaimPanics(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(5))
	var a Arena
	f := a.Fork(s)
	f.Credit(alice, types.Ether(1))
	a.Reclaim()
	uses := map[string]func(){
		"Balance":      func() { f.Balance(alice) },
		"Nonce":        func() { f.Nonce(alice) },
		"Get":          func() { f.Get(pool, r0) },
		"SetBalance":   func() { f.SetBalance(alice, types.Ether(1)) },
		"Credit":       func() { f.Credit(alice, types.Ether(1)) },
		"SetNonce":     func() { f.SetNonce(alice, 1) },
		"Set":          func() { f.Set(pool, r0, u256.New(1)) },
		"Snapshot":     func() { f.Snapshot() },
		"RevertTo":     func() { f.RevertTo(0) },
		"ClearJournal": func() { f.ClearJournal() },
		"Copy":         func() { f.Copy() },
		"ArenaFork":    func() { a.Fork(f) },
		"Export":       func() { f.Export() },
		"TotalSupply":  func() { f.TotalSupply() },
		"Accounts":     func() { f.Accounts() },
		"AbsorbFork":   func() { _ = s.AbsorbFork(f) },
	}
	for name, use := range uses {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a reclaimed fork did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestArenaForkCycleAllocsZero: once warm, a slot round's fork → mutate →
// snapshot/revert → reclaim cycle allocates nothing.
func TestArenaForkCycleAllocsZero(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(5))
	s.Set(pool, r1, u256.New(9))
	var a Arena
	cycle := func() {
		for i := 0; i < 4; i++ {
			mutateFork(a.Fork(s))
		}
		a.Reclaim()
	}
	for i := 0; i < 3; i++ {
		cycle() // warm-up grows the maps, journals and arena lists once
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("fork cycle allocates %.1f objects per run, want 0", allocs)
	}
}
