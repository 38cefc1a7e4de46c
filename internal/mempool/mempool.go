// Package mempool implements the pending-transaction pool block producers
// draw from. It is nonce-aware (a sender's transactions only become
// executable in nonce order) and serves candidates ordered by effective tip,
// which is both what mainnet clients do and the paper's description of
// pre-MEV block building ("proposers have simply ordered transactions
// according to their gas price").
//
// Everything returned is deterministic: ties are broken by transaction hash,
// never by map iteration order.
package mempool

import (
	"errors"
	"fmt"
	"sort"

	"github.com/ethpbs/pbslab/internal/state"
	"github.com/ethpbs/pbslab/internal/types"
)

// Errors returned by Add.
var (
	ErrKnown        = errors.New("mempool: transaction already known")
	ErrNonceReplace = errors.New("mempool: same-nonce transaction with lower fee")
)

// Pool is the pending pool. Not safe for concurrent use.
type Pool struct {
	byHash   map[types.Hash]*types.Transaction
	bySender map[types.Address][]*types.Transaction // sorted by nonce

	// ordered, once indexed, holds every pending transaction sorted by the
	// static part of the Executable order — tip descending, hash ascending
	// — and is maintained incrementally on Add/Remove instead of re-sorted
	// per block. The index is built lazily on the first ExecutableOrdered
	// call so callers of the from-scratch Executable (the reference the
	// tests hold ExecutableOrdered to) never pay for it.
	ordered []*types.Transaction
	indexed bool

	// Per-call scratch reused by ExecutableOrdered.
	members     map[types.Hash]bool
	constrained []*types.Transaction
	execOut     []*types.Transaction
}

// New returns an empty pool.
func New() *Pool {
	return &Pool{
		byHash:   map[types.Hash]*types.Transaction{},
		bySender: map[types.Address][]*types.Transaction{},
	}
}

// cmpStatic orders by tip descending, hash ascending: the Executable order
// for transactions whose fee cap does not bind at the current base fee. It
// is a total order (hashes are unique), so any correctly merged sequence is
// byte-identical to a full re-sort.
func cmpStatic(a, b *types.Transaction) int {
	if c := a.MaxTip.Cmp(b.MaxTip); c != 0 {
		return -c // higher tip first
	}
	ha, hb := a.Hash(), b.Hash()
	for k := range ha {
		if ha[k] != hb[k] {
			if ha[k] < hb[k] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// orderedInsert places tx into the ordered index.
func (p *Pool) orderedInsert(tx *types.Transaction) {
	idx := sort.Search(len(p.ordered), func(i int) bool { return cmpStatic(p.ordered[i], tx) >= 0 })
	p.ordered = append(p.ordered, nil)
	copy(p.ordered[idx+1:], p.ordered[idx:])
	p.ordered[idx] = tx
}

// orderedRemove drops tx from the ordered index.
func (p *Pool) orderedRemove(tx *types.Transaction) {
	idx := sort.Search(len(p.ordered), func(i int) bool { return cmpStatic(p.ordered[i], tx) >= 0 })
	for idx < len(p.ordered) && p.ordered[idx] != tx {
		idx++ // identical (tip, hash) cannot happen; linear step is a guard
	}
	if idx < len(p.ordered) {
		copy(p.ordered[idx:], p.ordered[idx+1:])
		p.ordered[len(p.ordered)-1] = nil
		p.ordered = p.ordered[:len(p.ordered)-1]
	}
}

// ensureIndex builds the ordered index from the current pool contents.
func (p *Pool) ensureIndex() {
	if p.indexed {
		return
	}
	p.ordered = p.ordered[:0]
	for _, tx := range p.byHash {
		p.ordered = append(p.ordered, tx)
	}
	sort.Slice(p.ordered, func(i, j int) bool { return cmpStatic(p.ordered[i], p.ordered[j]) < 0 })
	p.indexed = true
}

// Len returns the number of pending transactions.
func (p *Pool) Len() int { return len(p.byHash) }

// Has reports whether the pool holds the transaction.
func (p *Pool) Has(h types.Hash) bool {
	_, ok := p.byHash[h]
	return ok
}

// Add inserts a transaction. A same-sender same-nonce transaction replaces
// the existing one only when it pays a strictly higher max fee (the standard
// replacement rule); otherwise ErrNonceReplace is returned.
func (p *Pool) Add(tx *types.Transaction) error {
	if p.Has(tx.Hash()) {
		return ErrKnown
	}
	list := p.bySender[tx.From]
	idx := sort.Search(len(list), func(i int) bool { return list[i].Nonce >= tx.Nonce })
	if idx < len(list) && list[idx].Nonce == tx.Nonce {
		old := list[idx]
		if !tx.MaxFee.Gt(old.MaxFee) {
			return fmt.Errorf("%w: nonce %d", ErrNonceReplace, tx.Nonce)
		}
		delete(p.byHash, old.Hash())
		if p.indexed {
			p.orderedRemove(old)
		}
		list[idx] = tx
	} else {
		list = append(list, nil)
		copy(list[idx+1:], list[idx:])
		list[idx] = tx
	}
	p.bySender[tx.From] = list
	p.byHash[tx.Hash()] = tx
	if p.indexed {
		p.orderedInsert(tx)
	}
	return nil
}

// Remove drops one transaction by hash, if present.
func (p *Pool) Remove(h types.Hash) {
	tx, ok := p.byHash[h]
	if !ok {
		return
	}
	delete(p.byHash, h)
	if p.indexed {
		p.orderedRemove(tx)
	}
	list := p.bySender[tx.From]
	for i, cand := range list {
		if cand.Hash() == h {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(p.bySender, tx.From)
	} else {
		p.bySender[tx.From] = list
	}
}

// RemoveIncluded drops every transaction of the block from the pool, plus
// any now-stale same-sender transactions with lower nonces.
func (p *Pool) RemoveIncluded(txs []*types.Transaction) {
	for _, tx := range txs {
		p.Remove(tx.Hash())
		// Stale lower-nonce leftovers can never execute again.
		list := p.bySender[tx.From]
		for len(list) > 0 && list[0].Nonce <= tx.Nonce {
			delete(p.byHash, list[0].Hash())
			if p.indexed {
				p.orderedRemove(list[0])
			}
			list = list[1:]
		}
		if len(list) == 0 {
			delete(p.bySender, tx.From)
		} else {
			p.bySender[tx.From] = list
		}
	}
}

// Executable returns the transactions that could be included in the next
// block: per sender, the gap-free nonce chain starting at the sender's state
// nonce, restricted to transactions whose max fee covers baseFee. The result
// is ordered by effective tip (descending), ties broken by hash, and capped
// at max entries (0 = no cap).
func (p *Pool) Executable(st *state.State, baseFee types.Wei, max int) []*types.Transaction {
	var out []*types.Transaction
	for sender, list := range p.bySender {
		nonce := st.Nonce(sender)
		for _, tx := range list {
			if tx.Nonce < nonce {
				continue
			}
			if tx.Nonce > nonce {
				break // gap: later txs are not executable yet
			}
			if _, ok := tx.EffectiveTip(baseFee); !ok {
				break // unpayable now; successors can't jump the chain
			}
			out = append(out, tx)
			nonce++
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ti, _ := out[i].EffectiveTip(baseFee)
		tj, _ := out[j].EffectiveTip(baseFee)
		switch ti.Cmp(tj) {
		case 1:
			return true
		case -1:
			return false
		}
		hi, hj := out[i].Hash(), out[j].Hash()
		for k := range hi {
			if hi[k] != hj[k] {
				return hi[k] < hj[k]
			}
		}
		return false
	})
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// ExecutableOrdered returns exactly what Executable returns, but served
// from the incrementally ordered index instead of a from-scratch sort: the
// fee-cap-unconstrained majority (effective tip = max tip at the current
// base fee) is read off the index in place, only the few transactions whose
// cap binds are sorted per call, and the two runs are merged under the same
// total order. Scratch buffers are pooled across calls; the returned slice
// is valid until the next call.
func (p *Pool) ExecutableOrdered(st *state.State, baseFee types.Wei, max int) []*types.Transaction {
	p.ensureIndex()
	if p.members == nil {
		p.members = map[types.Hash]bool{}
	} else {
		clear(p.members)
	}
	p.constrained = p.constrained[:0]
	out := p.execOut[:0]

	// Membership: per sender, the gap-free executable nonce chain — same
	// walk as Executable. Iteration order does not matter: ordering comes
	// from the index and the merge below.
	for sender, list := range p.bySender {
		nonce := st.Nonce(sender)
		for _, tx := range list {
			if tx.Nonce < nonce {
				continue
			}
			if tx.Nonce > nonce {
				break
			}
			if _, ok := tx.EffectiveTip(baseFee); !ok {
				break
			}
			// The cap binds iff baseFee+maxTip exceeds maxFee; those few
			// sort below their max-tip position and are merged separately.
			if baseFee.Add(tx.MaxTip).Gt(tx.MaxFee) {
				p.constrained = append(p.constrained, tx)
			} else {
				p.members[tx.Hash()] = true
			}
			nonce++
		}
	}
	sort.Slice(p.constrained, func(i, j int) bool {
		ti, _ := p.constrained[i].EffectiveTip(baseFee)
		tj, _ := p.constrained[j].EffectiveTip(baseFee)
		if c := ti.Cmp(tj); c != 0 {
			return c > 0
		}
		return hashLess(p.constrained[i].Hash(), p.constrained[j].Hash())
	})

	// Merge the index run (effective tip = max tip) with the constrained
	// run under (effective tip desc, hash asc) — the Executable order.
	ci := 0
	for _, tx := range p.ordered {
		if !p.members[tx.Hash()] {
			continue
		}
		for ci < len(p.constrained) {
			c := p.constrained[ci]
			effC, _ := c.EffectiveTip(baseFee)
			cmp := effC.Cmp(tx.MaxTip)
			if cmp > 0 || (cmp == 0 && hashLess(c.Hash(), tx.Hash())) {
				out = append(out, c)
				ci++
				continue
			}
			break
		}
		out = append(out, tx)
	}
	for ; ci < len(p.constrained); ci++ {
		out = append(out, p.constrained[ci])
	}
	p.execOut = out
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

func hashLess(a, b types.Hash) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// All returns every pending transaction ordered by (sender, nonce), senders
// sorted lexicographically. The order is deterministic, so checkpoints that
// serialize the pool and rebuild it via Add reproduce identical pools.
func (p *Pool) All() []*types.Transaction {
	senders := make([]types.Address, 0, len(p.bySender))
	for s := range p.bySender {
		senders = append(senders, s)
	}
	sort.Slice(senders, func(i, j int) bool {
		return bytesLess(senders[i][:], senders[j][:])
	})
	out := make([]*types.Transaction, 0, len(p.byHash))
	for _, s := range senders {
		out = append(out, p.bySender[s]...)
	}
	return out
}

func bytesLess(a, b []byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Prune drops transactions that can never execute against st (nonce already
// used). Returns the number pruned.
func (p *Pool) Prune(st *state.State) int {
	pruned := 0
	for sender, list := range p.bySender {
		nonce := st.Nonce(sender)
		keep := list[:0]
		for _, tx := range list {
			if tx.Nonce < nonce {
				delete(p.byHash, tx.Hash())
				if p.indexed {
					p.orderedRemove(tx)
				}
				pruned++
				continue
			}
			keep = append(keep, tx)
		}
		if len(keep) == 0 {
			delete(p.bySender, sender)
		} else {
			p.bySender[sender] = keep
		}
	}
	return pruned
}
