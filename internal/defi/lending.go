package defi

import (
	"fmt"

	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/evm"
	"github.com/ethpbs/pbslab/internal/state"
	"github.com/ethpbs/pbslab/internal/types"
	"github.com/ethpbs/pbslab/internal/u256"
)

// Lending is a single-asset collateralized lending market: users post ETH
// collateral and borrow the debt token; a designated oracle posts the
// ETH price; positions whose debt exceeds the liquidation threshold can be
// liquidated by anyone for a collateral bonus. This is the substrate for
// the paper's third MEV class (Figure 22).
type Lending struct {
	Addr types.Address
	// Debt is the borrowed token.
	Debt *Token
	// Oracle is the only address allowed to post prices.
	Oracle types.Address
	// LiqThresholdBps: a position is liquidatable when
	// debtValue > collateralValue * threshold / 10000.
	LiqThresholdBps uint64
	// BonusBps is the liquidator's collateral bonus in basis points.
	BonusBps uint64
}

// slotPrice holds the oracle price: debt-token wei per 1 ETH (1e18
// collateral wei).
var slotPrice = state.Key{Kind: state.KindPrice}

func collKey(user types.Address) state.Key { return state.Key{Kind: state.KindColl, Holder: user} }
func debtKey(user types.Address) state.Key { return state.Key{Kind: state.KindDebt, Holder: user} }

// oneEther is the price scale: prices are debt-wei per 1e18 collateral wei.
var oneEther = u256.New(1_000_000_000_000_000_000)

// NewLending creates a market with a deterministic address.
func NewLending(name string, debt *Token, oracle types.Address) *Lending {
	return &Lending{
		Addr:            crypto.AddressFromSeed("lending/" + name),
		Debt:            debt,
		Oracle:          oracle,
		LiqThresholdBps: 8_000, // 80%
		BonusBps:        500,   // 5%
	}
}

// Price returns the oracle price (debt-wei per ETH).
func (l *Lending) Price(st *state.State) u256.Int {
	return st.Get(l.Addr, slotPrice)
}

// SetPriceGenesis seeds the initial price outside transaction flow.
func (l *Lending) SetPriceGenesis(st *state.State, price u256.Int) {
	st.Set(l.Addr, slotPrice, price)
}

// Position returns a user's collateral (ETH wei) and debt (token wei).
func (l *Lending) Position(st *state.State, user types.Address) (coll, debt u256.Int) {
	return st.Get(l.Addr, collKey(user)), st.Get(l.Addr, debtKey(user))
}

// debtValueOK reports whether a debt is within the threshold for the given
// collateral at price p.
func (l *Lending) debtValueOK(coll, debt, price u256.Int) bool {
	// debt <= coll * price / 1e18 * threshold / 10000
	limit := coll.MulDiv(price, oneEther).Mul64(l.LiqThresholdBps).Div64(10_000)
	return !debt.Gt(limit)
}

// Liquidatable reports whether user's position can currently be liquidated.
func (l *Lending) Liquidatable(st *state.State, user types.Address) bool {
	coll, debt := l.Position(st, user)
	if debt.IsZero() {
		return false
	}
	return !l.debtValueOK(coll, debt, l.Price(st))
}

// Call implements evm.Contract for the lending operations.
func (l *Lending) Call(env *evm.Env, from types.Address, value types.Wei, call evm.Call) error {
	switch call.Op {
	case evm.OpOracleSet:
		return l.oracleSet(env, from, value, call)
	case evm.OpBorrow:
		return l.borrow(env, from, value, call)
	case evm.OpRepay:
		return l.repay(env, from, value, call)
	case evm.OpLiquidate:
		return l.liquidate(env, from, value, call)
	default:
		return fmt.Errorf("lending: unsupported op %s", call.Op)
	}
}

func (l *Lending) oracleSet(env *evm.Env, from types.Address, value types.Wei, call evm.Call) error {
	if from != l.Oracle {
		return fmt.Errorf("lending: %s is not the oracle", from)
	}
	if !value.IsZero() {
		return fmt.Errorf("lending: oracle update is non-payable")
	}
	if call.Amount.IsZero() {
		return fmt.Errorf("lending: zero price")
	}
	env.State.Set(l.Addr, slotPrice, call.Amount)
	w := &dataWriter{}
	env.EmitLog(l.Addr, []types.Hash{TopicOracleUpdate}, w.amount(call.Amount).bytes())
	return nil
}

func (l *Lending) borrow(env *evm.Env, from types.Address, value types.Wei, call evm.Call) error {
	debt := call.Amount
	if debt.IsZero() || value.IsZero() {
		return fmt.Errorf("lending: borrow requires collateral and debt")
	}
	st := env.State
	price := l.Price(st)
	if price.IsZero() {
		return fmt.Errorf("lending: no oracle price")
	}
	coll, existing := l.Position(st, from)
	newColl := coll.Add(value)
	newDebt := existing.Add(debt)
	if !l.debtValueOK(newColl, newDebt, price) {
		return fmt.Errorf("lending: borrow exceeds threshold")
	}
	// Effects: pull collateral, mint debt tokens, update the position.
	if err := env.TransferETH(from, l.Addr, value); err != nil {
		return err
	}
	l.Debt.Mint(st, from, debt)
	st.Set(l.Addr, collKey(from), newColl)
	st.Set(l.Addr, debtKey(from), newDebt)
	w := &dataWriter{}
	env.EmitLog(l.Addr, []types.Hash{TopicBorrow, AddrTopic(from)},
		w.amount(value).amount(debt).bytes())
	return nil
}

func (l *Lending) repay(env *evm.Env, from types.Address, value types.Wei, call evm.Call) error {
	if !value.IsZero() {
		return fmt.Errorf("lending: repay is non-payable")
	}
	amount := call.Amount
	_, debt := l.Position(env.State, from)
	if amount.Gt(debt) {
		amount = debt
	}
	if amount.IsZero() {
		return fmt.Errorf("lending: nothing to repay")
	}
	if err := l.Debt.Burn(env.State, from, amount); err != nil {
		return err
	}
	env.State.Set(l.Addr, debtKey(from), debt.Sub(amount))
	w := &dataWriter{}
	env.EmitLog(l.Addr, []types.Hash{TopicRepay, AddrTopic(from)},
		w.amount(amount).bytes())
	return nil
}

func (l *Lending) liquidate(env *evm.Env, from types.Address, value types.Wei, call evm.Call) error {
	if !value.IsZero() {
		return fmt.Errorf("lending: liquidate is non-payable")
	}
	borrower := call.Addr
	st := env.State
	coll, debt := l.Position(st, borrower)
	if debt.IsZero() {
		return fmt.Errorf("lending: no position for %s", borrower)
	}
	price := l.Price(st)
	if l.debtValueOK(coll, debt, price) {
		return fmt.Errorf("lending: position is healthy")
	}
	// Seize collateral worth the debt plus the bonus, capped at the
	// position's collateral.
	collNeeded := debt.MulDiv(oneEther, price)
	seized := collNeeded.Mul64(10_000 + l.BonusBps).Div64(10_000)
	if seized.Gt(coll) {
		seized = coll
	}
	// Validate the liquidator can repay before mutating.
	if l.Debt.BalanceOf(st, from).Lt(debt) {
		return fmt.Errorf("lending: liquidator lacks %s to repay", l.Debt.Symbol)
	}
	if err := l.Debt.Burn(st, from, debt); err != nil {
		return err
	}
	if err := env.TransferETH(l.Addr, from, seized); err != nil {
		return err
	}
	st.Set(l.Addr, collKey(borrower), coll.Sub(seized))
	st.Set(l.Addr, debtKey(borrower), u256.Zero)
	w := &dataWriter{}
	env.EmitLog(l.Addr, []types.Hash{TopicLiquidation, AddrTopic(from), AddrTopic(borrower)},
		w.amount(debt).amount(seized).bytes())
	return nil
}

// BorrowCalldata builds calldata for a borrow of debtAmount.
func BorrowCalldata(debtAmount u256.Int) []byte {
	return evm.EncodeCall(evm.Call{Op: evm.OpBorrow, Amount: debtAmount})
}

// RepayCalldata builds calldata for a repay.
func RepayCalldata(amount u256.Int) []byte {
	return evm.EncodeCall(evm.Call{Op: evm.OpRepay, Amount: amount})
}

// LiquidateCalldata builds calldata to liquidate borrower.
func LiquidateCalldata(borrower types.Address) []byte {
	return evm.EncodeCall(evm.Call{Op: evm.OpLiquidate, Addr: borrower})
}

// OracleSetCalldata builds calldata for an oracle price update.
func OracleSetCalldata(price u256.Int) []byte {
	return evm.EncodeCall(evm.Call{Op: evm.OpOracleSet, Amount: price})
}

// TokenTransferCalldata builds calldata for an ERC-20 transfer.
func TokenTransferCalldata(to types.Address, amount u256.Int) []byte {
	return evm.EncodeCall(evm.Call{Op: evm.OpTokenTransfer, Addr: to, Amount: amount})
}

// CoinbaseTipCalldata builds calldata for a direct payment to the block's
// fee recipient.
func CoinbaseTipCalldata(amount u256.Int) []byte {
	return evm.EncodeCall(evm.Call{Op: evm.OpCoinbaseTip, Amount: amount})
}
