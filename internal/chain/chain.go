// Package chain implements the execution-layer blockchain: the EIP-1559
// base-fee update rule, block processing (execution of a transaction list
// with fee accounting), full block validation, and an in-memory chain store
// holding the receipts and traces the measurement pipeline reads back.
//
// Validation matters to the reproduction: the paper's 2022-11-10 incident —
// a builder submitting blocks with bad timestamps that proposers' nodes
// rejected, forcing local block production — plays out here through
// Accept returning ErrBadTimestamp.
package chain

import (
	"errors"
	"fmt"

	"github.com/ethpbs/pbslab/internal/evm"
	"github.com/ethpbs/pbslab/internal/state"
	"github.com/ethpbs/pbslab/internal/types"
	"github.com/ethpbs/pbslab/internal/u256"
)

// EIP-1559 constants, as on mainnet.
const (
	// BaseFeeChangeDenominator bounds the per-block base-fee movement.
	BaseFeeChangeDenominator = 8
	// ElasticityMultiplier relates the gas target to the gas limit.
	ElasticityMultiplier = 2
	// DefaultGasLimit is the post-merge mainnet block gas limit.
	DefaultGasLimit = 30_000_000
	// DefaultSlotSeconds is the Beacon chain slot duration.
	DefaultSlotSeconds = 12
)

// Mainnet merge anchors (the paper's measurement window starts here).
const (
	// MergeBlockNumber is the first PoS block, 2022-09-15.
	MergeBlockNumber = 15_537_394
	// MergeSlot is the Beacon slot carrying the merge block.
	MergeSlot = 4_700_013
	// MergeTimestamp is the merge block's unix timestamp.
	MergeTimestamp = 1_663_224_179
)

// Validation errors returned by Accept.
var (
	ErrUnknownParent = errors.New("chain: unknown parent")
	ErrBadNumber     = errors.New("chain: wrong block number")
	ErrBadTimestamp  = errors.New("chain: wrong timestamp for slot")
	ErrBadBaseFee    = errors.New("chain: wrong base fee")
	ErrBadGasLimit   = errors.New("chain: wrong gas limit")
	ErrBadGasUsed    = errors.New("chain: declared gas used mismatch")
	ErrBadTxRoot     = errors.New("chain: transaction root mismatch")
	ErrGasExceeded   = errors.New("chain: block gas above limit")
	ErrStaleSlot     = errors.New("chain: slot not after head")
	ErrInvalidTx     = errors.New("chain: invalid transaction in block")
)

// NextBaseFee computes the child base fee from the parent header per
// EIP-1559.
func NextBaseFee(parent *types.Header) types.Wei {
	target := parent.GasLimit / ElasticityMultiplier
	base := parent.BaseFee
	switch {
	case parent.GasUsed == target:
		return base
	case parent.GasUsed > target:
		delta := base.Mul64(parent.GasUsed - target).Div64(target).Div64(BaseFeeChangeDenominator)
		if delta.IsZero() {
			delta = u256.One
		}
		return base.Add(delta)
	default:
		delta := base.Mul64(target - parent.GasUsed).Div64(target).Div64(BaseFeeChangeDenominator)
		return base.SatSub(delta)
	}
}

// Config anchors the chain in calendar time and sets protocol parameters.
type Config struct {
	GenesisNumber  uint64
	GenesisSlot    uint64
	GenesisTime    uint64
	SlotSeconds    uint64
	GasLimit       uint64
	InitialBaseFee types.Wei
}

// MainnetMergeConfig returns the configuration matching the paper's window.
func MainnetMergeConfig() Config {
	return Config{
		GenesisNumber:  MergeBlockNumber,
		GenesisSlot:    MergeSlot,
		GenesisTime:    MergeTimestamp,
		SlotSeconds:    DefaultSlotSeconds,
		GasLimit:       DefaultGasLimit,
		InitialBaseFee: types.Gwei(15),
	}
}

// StoredBlock is a canonical block with its execution artifacts.
type StoredBlock struct {
	Block    *types.Block
	Receipts []*types.Receipt
	Traces   []types.Trace
	// Burned is the total base fee destroyed by the block.
	Burned types.Wei
	// Tips is the total priority fee credited to the fee recipient.
	Tips types.Wei
}

// Chain is the canonical execution-layer chain. It is not safe for
// concurrent use; the simulator drives it from one goroutine.
type Chain struct {
	cfg    Config
	engine *evm.Engine
	st     *state.State
	blocks []*StoredBlock
	byHash map[types.Hash]*StoredBlock
}

// New creates a chain whose genesis block wraps the given pre-state. The
// genesis block carries no transactions.
func New(cfg Config, engine *evm.Engine, genesisState *state.State) *Chain {
	header := &types.Header{
		Number:    cfg.GenesisNumber,
		Slot:      cfg.GenesisSlot,
		Timestamp: cfg.GenesisTime,
		GasLimit:  cfg.GasLimit,
		BaseFee:   cfg.InitialBaseFee,
		Extra:     []byte("genesis"),
	}
	genesis := types.NewBlock(header, nil)
	c := &Chain{
		cfg:    cfg,
		engine: engine,
		st:     genesisState,
		byHash: map[types.Hash]*StoredBlock{},
	}
	stored := &StoredBlock{Block: genesis}
	c.blocks = append(c.blocks, stored)
	c.byHash[genesis.Hash()] = stored
	return c
}

// Config returns the chain configuration.
func (c *Chain) Config() Config { return c.cfg }

// Restore replaces the chain's post-genesis history and canonical state in
// one step; simulation checkpoints use it to rebuild a chain to an exact
// mid-run position. The genesis block is kept, blocks are appended in
// order, and the hash index is rebuilt from scratch.
func (c *Chain) Restore(blocks []*StoredBlock, st *state.State) {
	genesis := c.blocks[0]
	c.blocks = append(c.blocks[:0:0], genesis)
	c.byHash = map[types.Hash]*StoredBlock{genesis.Block.Hash(): genesis}
	for _, b := range blocks {
		c.blocks = append(c.blocks, b)
		c.byHash[b.Block.Hash()] = b
	}
	c.st = st
}

// Engine returns the execution engine (shared with builders).
func (c *Chain) Engine() *evm.Engine { return c.engine }

// Head returns the current head block.
func (c *Chain) Head() *StoredBlock { return c.blocks[len(c.blocks)-1] }

// Len returns the number of canonical blocks including genesis.
func (c *Chain) Len() int { return len(c.blocks) }

// Blocks returns the canonical blocks in order. Callers must not mutate.
func (c *Chain) Blocks() []*StoredBlock { return c.blocks }

// ByHash looks a block up by hash.
func (c *Chain) ByHash(h types.Hash) (*StoredBlock, bool) {
	b, ok := c.byHash[h]
	return b, ok
}

// StateCopy returns a copy of the canonical head state for speculative
// execution by builders and validators.
func (c *Chain) StateCopy() *state.State { return c.st.Copy() }

// StateFork returns an O(1) copy-on-write fork of the canonical head state,
// taken from arena. Forks read through to the canonical state, so they must
// be dead before the next Accept; several forks may be used from different
// goroutines as long as the canonical state stays unmutated. The fork lives
// until the arena's next Reclaim.
func (c *Chain) StateFork(arena *state.Arena) *state.State { return arena.Fork(c.st) }

// State returns the canonical state. Callers other than Accept must not
// mutate it; use StateCopy for simulation.
func (c *Chain) State() *state.State { return c.st }

// SlotTime returns the wall-clock timestamp of a slot.
func (c *Chain) SlotTime(slot uint64) uint64 {
	return c.cfg.GenesisTime + (slot-c.cfg.GenesisSlot)*c.cfg.SlotSeconds
}

// NextBaseFee returns the base fee a child of the current head must carry.
func (c *Chain) NextBaseFee() types.Wei {
	return NextBaseFee(c.Head().Block.Header)
}

// HeaderTemplate returns a child header for the given slot and fee
// recipient, with protocol-derived fields (number, timestamp, base fee, gas
// limit, parent hash) filled in. Builders seal blocks from templates.
func (c *Chain) HeaderTemplate(slot uint64, feeRecipient types.Address) *types.Header {
	head := c.Head().Block
	return &types.Header{
		ParentHash:   head.Hash(),
		Number:       head.Number() + 1,
		Slot:         slot,
		Timestamp:    c.SlotTime(slot),
		FeeRecipient: feeRecipient,
		GasLimit:     c.cfg.GasLimit,
		BaseFee:      c.NextBaseFee(),
	}
}

// ProcessResult summarizes the execution of a transaction list.
type ProcessResult struct {
	Receipts []*types.Receipt
	Traces   []types.Trace
	GasUsed  uint64
	Burned   types.Wei
	Tips     types.Wei
}

// Process executes txs in order against st (mutating it) under ctx. Any
// invalid transaction aborts with ErrInvalidTx; reverted transactions are
// fine (they are included with status 0, as on mainnet).
func Process(engine *evm.Engine, st *state.State, ctx evm.BlockContext, txs []*types.Transaction) (*ProcessResult, error) {
	res := &ProcessResult{Burned: u256.Zero, Tips: u256.Zero}
	logIndex := uint(0)
	for i, tx := range txs {
		out, err := engine.ApplyTx(st, ctx, tx)
		if err != nil {
			return nil, fmt.Errorf("%w: tx %d (%s): %v", ErrInvalidTx, i, tx.Hash(), err)
		}
		res.GasUsed += out.Receipt.GasUsed
		if res.GasUsed > ctx.GasLimit {
			return nil, fmt.Errorf("%w: %d > %d", ErrGasExceeded, res.GasUsed, ctx.GasLimit)
		}
		for j := range out.Receipt.Logs {
			out.Receipt.Logs[j].Index = logIndex
			logIndex++
		}
		res.Receipts = append(res.Receipts, out.Receipt)
		res.Traces = append(res.Traces, out.Traces...)
		res.Burned = res.Burned.Add(out.Burned)
		res.Tips = res.Tips.Add(out.Tip)
	}
	return res, nil
}

// Validate checks block against the head and executes it speculatively,
// returning the execution artifacts and post-state without committing.
// Relays run exactly this check before escrow (except where the paper
// documents they did not).
func (c *Chain) Validate(block *types.Block) (*ProcessResult, *state.State, error) {
	return c.validate(block, c.st.Copy())
}

// ValidateFork is Validate served from an O(1) copy-on-write fork of the
// canonical state, taken from arena, instead of a deep copy. The returned
// post-state reads through to the canonical state, so it is only safe while
// the canonical state stays unmutated — i.e. within one slot round, before
// Accept — and until the arena's next Reclaim. The parallel slot engine uses
// it for the per-relay speculative validations; AcceptValidated absorbs the
// winner's post-state before the engine reclaims the arena.
func (c *Chain) ValidateFork(block *types.Block, arena *state.Arena) (*ProcessResult, *state.State, error) {
	return c.validate(block, arena.Fork(c.st))
}

// validate runs the header checks and executes block against postState,
// mutating it.
func (c *Chain) validate(block *types.Block, postState *state.State) (*ProcessResult, *state.State, error) {
	head := c.Head().Block
	h := block.Header
	if h.ParentHash != head.Hash() {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownParent, h.ParentHash)
	}
	if h.Number != head.Number()+1 {
		return nil, nil, fmt.Errorf("%w: %d after %d", ErrBadNumber, h.Number, head.Number())
	}
	if h.Slot <= head.Header.Slot {
		return nil, nil, fmt.Errorf("%w: slot %d after %d", ErrStaleSlot, h.Slot, head.Header.Slot)
	}
	if want := c.SlotTime(h.Slot); h.Timestamp != want {
		return nil, nil, fmt.Errorf("%w: %d, slot %d implies %d", ErrBadTimestamp, h.Timestamp, h.Slot, want)
	}
	if want := c.NextBaseFee(); h.BaseFee != want {
		return nil, nil, fmt.Errorf("%w: %s, want %s", ErrBadBaseFee, h.BaseFee, want)
	}
	if h.GasLimit != c.cfg.GasLimit {
		return nil, nil, fmt.Errorf("%w: %d", ErrBadGasLimit, h.GasLimit)
	}
	if want := types.ComputeTxRoot(block.Txs); h.TxRoot != want {
		return nil, nil, ErrBadTxRoot
	}

	ctx := evm.BlockContext{
		Number: h.Number, Timestamp: h.Timestamp,
		BaseFee: h.BaseFee, FeeRecipient: h.FeeRecipient, GasLimit: h.GasLimit,
	}
	res, err := Process(c.engine, postState, ctx, block.Txs)
	if err != nil {
		return nil, nil, err
	}
	if res.GasUsed != h.GasUsed {
		return nil, nil, fmt.Errorf("%w: executed %d, declared %d", ErrBadGasUsed, res.GasUsed, h.GasUsed)
	}
	return res, postState, nil
}

// AcceptValidated commits a block whose validation artifacts were already
// produced this slot round: res and postState must come from ValidateFork
// (or an equivalent fork execution) of exactly this block against the
// current head. The fork is folded into the canonical state in place, so the
// block is not re-executed and no deep copy is taken — but every other fork
// of the canonical state taken this round is invalidated. The parallel slot
// engine uses it to commit winners it has already validated.
func (c *Chain) AcceptValidated(block *types.Block, res *ProcessResult, postState *state.State) (*StoredBlock, error) {
	head := c.Head().Block
	if block.Header.ParentHash != head.Hash() {
		return nil, fmt.Errorf("%w: %s", ErrUnknownParent, block.Header.ParentHash)
	}
	if err := c.st.AbsorbFork(postState); err != nil {
		return nil, err
	}
	stored := &StoredBlock{
		Block:    block,
		Receipts: res.Receipts,
		Traces:   res.Traces,
		Burned:   res.Burned,
		Tips:     res.Tips,
	}
	c.blocks = append(c.blocks, stored)
	c.byHash[block.Hash()] = stored
	return stored, nil
}

// Accept validates block against the head and, when valid, executes it,
// commits the post-state and appends it to the chain.
func (c *Chain) Accept(block *types.Block) (*StoredBlock, error) {
	res, postState, err := c.Validate(block)
	if err != nil {
		return nil, err
	}
	c.st = postState
	stored := &StoredBlock{
		Block:    block,
		Receipts: res.Receipts,
		Traces:   res.Traces,
		Burned:   res.Burned,
		Tips:     res.Tips,
	}
	c.blocks = append(c.blocks, stored)
	c.byHash[block.Hash()] = stored
	return stored, nil
}
