package defi

import (
	"fmt"

	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/evm"
	"github.com/ethpbs/pbslab/internal/state"
	"github.com/ethpbs/pbslab/internal/types"
	"github.com/ethpbs/pbslab/internal/u256"
)

// Token is an ERC-20 style fungible token. Balances live in the token
// contract's storage under the holder's bal key, so speculative state copies
// carry them automatically.
type Token struct {
	Addr   types.Address
	Symbol string
}

// NewToken creates a token with a deterministic address derived from its
// symbol.
func NewToken(symbol string) *Token {
	return &Token{Addr: crypto.AddressFromSeed("token/" + symbol), Symbol: symbol}
}

func balKey(holder types.Address) state.Key {
	return state.Key{Kind: state.KindBal, Holder: holder}
}

// BalanceOf returns holder's token balance.
func (t *Token) BalanceOf(st *state.State, holder types.Address) u256.Int {
	return st.Get(t.Addr, balKey(holder))
}

// Mint credits newly created tokens; for genesis and market operations.
func (t *Token) Mint(st *state.State, holder types.Address, amount u256.Int) {
	st.AddTo(t.Addr, balKey(holder), amount)
}

// Burn destroys tokens from holder, failing when the balance is short.
func (t *Token) Burn(st *state.State, holder types.Address, amount u256.Int) error {
	return st.SubFrom(t.Addr, balKey(holder), amount)
}

// move shifts balance between holders without logging; Call wraps it.
func (t *Token) move(st *state.State, from, to types.Address, amount u256.Int) error {
	if err := st.SubFrom(t.Addr, balKey(from), amount); err != nil {
		return fmt.Errorf("token %s: %w", t.Symbol, err)
	}
	st.AddTo(t.Addr, balKey(to), amount)
	return nil
}

// transferWithLog moves tokens and emits the Transfer event.
func (t *Token) transferWithLog(env *evm.Env, from, to types.Address, amount u256.Int) error {
	if err := t.move(env.State, from, to, amount); err != nil {
		return err
	}
	w := &dataWriter{}
	env.EmitLog(t.Addr,
		[]types.Hash{TopicTransfer, AddrTopic(from), AddrTopic(to)},
		w.amount(amount).bytes())
	return nil
}

// Call implements evm.Contract: OpTokenTransfer moves call.Amount to
// call.Addr.
func (t *Token) Call(env *evm.Env, from types.Address, value types.Wei, call evm.Call) error {
	if call.Op != evm.OpTokenTransfer {
		return fmt.Errorf("token %s: unsupported op %s", t.Symbol, call.Op)
	}
	if !value.IsZero() {
		return fmt.Errorf("token %s: non-payable", t.Symbol)
	}
	return t.transferWithLog(env, from, call.Addr, call.Amount)
}
