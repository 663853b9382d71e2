package interp

import (
	"errors"
	"fmt"

	"beyondiv/internal/ir"
	"beyondiv/internal/ssa"
)

// Hooks observe SSA execution; any field may be nil.
type Hooks struct {
	// OnBlock fires when a block begins executing.
	OnBlock func(b *ir.Block)
	// OnEval fires after each value evaluates.
	OnEval func(v *ir.Value, val int64)
	// OnStore, when set, receives every array store in execution order
	// in place of Result.Writes, which then stays nil. A non-nil return
	// stops the run, and Run returns that error.
	OnStore func(w ArrayWrite) error
}

// RunSSA executes an SSA-form function.
func RunSSA(info *ssa.Info, cfg Config) (*Result, error) {
	return Compile(info).Run(cfg, Hooks{})
}

// RunSSAHooked executes an SSA-form function with observation hooks.
func RunSSAHooked(info *ssa.Info, cfg Config, hooks Hooks) (*Result, error) {
	return Compile(info).Run(cfg, hooks)
}

// Program is an SSA function compiled for repeated execution: every
// value reachable from the entry becomes an op-coded instruction over
// dense value-ID slots, each block's φ moves are resolved per incoming
// edge, scalars live in the slots of the SSA's interned variable table,
// and arrays are interned to IDs. Run reads nothing of the IR, so the
// function may be rewritten once Compile returns; the only IR pointers
// it keeps are the blocks and values it hands to Hooks. A Program is
// immutable and safe for concurrent Runs.
type Program struct {
	code   []inst
	blocks []block
	// moves holds, per edge into a block with φs, the value IDs its φs
	// read on that edge, in φ order; entry is the entry block's edge.
	moves     []int32
	entry     int32 // -1: no entry block, nothing runs
	entryEdge int32
	nvals     int
	maxPhi    int
	vars      []string // scalar slot → name (ssa.Info.VarNames)
	params    []string // OpParam operand → parameter name
	arrays    []string // array ID → name
	texts     []string // error texts of what cannot execute

	irBlocks []*ir.Block // for Hooks.OnBlock, by block index
	irVals   []*ir.Value // for Hooks.OnEval, by instruction
}

// op is a compiled instruction's opcode.
type op uint8

const (
	opBad   op = iota // cannot execute: aux indexes Program.texts
	opPhi             // the block's aux-th φ, read on entry
	opConst           // aux
	opParam           // Params[params[aux]]
	opCopy
	opAdd
	opSub
	opMul
	opDiv
	opExp
	opNeg
	opLoad  // array aux, index a
	opStore // array aux, index a, value b
	opLess
	opLeq
	opGreater
	opGeq
	opEq
	opNeq
)

// ops maps an ir op to its compiled opcode and the operands it reads;
// the zero entry (opBad) marks what cannot execute.
var ops = [...]struct {
	op op
	n  int
}{
	ir.OpConst:     {opConst, 0},
	ir.OpParam:     {opParam, 0},
	ir.OpCopy:      {opCopy, 1},
	ir.OpAdd:       {opAdd, 2},
	ir.OpSub:       {opSub, 2},
	ir.OpMul:       {opMul, 2},
	ir.OpDiv:       {opDiv, 2},
	ir.OpExp:       {opExp, 2},
	ir.OpNeg:       {opNeg, 1},
	ir.OpLoadElem:  {opLoad, 1},
	ir.OpStoreElem: {opStore, 2},
	ir.OpLess:      {opLess, 2},
	ir.OpLeq:       {opLeq, 2},
	ir.OpGreater:   {opGreater, 2},
	ir.OpGeq:       {opGeq, 2},
	ir.OpEq:        {opEq, 2},
	ir.OpNeq:       {opNeq, 2},
}

// inst is one compiled value: dst and the operands a, b are value IDs.
type inst struct {
	op   op
	slot int32 // scalar slot of the variable dst carries, or -1
	dst  int32
	a, b int32
	aux  int64
}

// block is one compiled block: code[lo:hi] with its nphi φs first, and
// its transfer. An edge is an offset into Program.moves, or a negative
// -(text+1) naming the error entering the successor raises.
type block struct {
	lo, hi int32
	nphi   int32
	term   term
	ctrl   int32    // termIf: the control value's ID
	succ   [2]int32 // successor block indices
	edge   [2]int32
	err    int32 // termBad: text index
}

// term is how a compiled block transfers control.
type term uint8

const (
	termExit term = iota
	termJump
	termIf
	termBad
)

// Compile compiles info's function for Run. It never panics on
// malformed IR: what the interpreter cannot execute — a value whose
// operands do not fit its op, a φ outside its block's leading run, a
// block without the successors or control its kind needs — compiles to
// an error Run returns when it reaches it.
func Compile(info *ssa.Info) *Program {
	f := info.Func
	c := &compiler{
		info: info,
		p:    &Program{nvals: f.NumValues(), vars: info.VarNames(), entry: -1},
		byID: make([]int32, f.NumBlocks()),
	}
	p := c.p
	if f.Entry == nil {
		return p
	}
	for i := range c.byID {
		c.byID[i] = -1
	}
	p.code = make([]inst, 0, f.NumValues())
	p.irVals = make([]*ir.Value, 0, f.NumValues())
	p.blocks = make([]block, 0, len(f.Blocks))
	p.irBlocks = make([]*ir.Block, 0, len(f.Blocks))
	p.entry = c.index(f.Entry)
	for i := 0; i < len(p.irBlocks); i++ { // index appends as it discovers
		c.block(int32(i))
	}
	// Edges need their target's φ run, so they resolve once every
	// block is compiled.
	p.entryEdge = c.edge(nil, f.Entry, p.entry)
	for i := range p.blocks {
		b, ib := &p.blocks[i], p.irBlocks[i]
		switch b.term {
		case termIf:
			b.edge[1] = c.edge(ib, ib.Succs[1], b.succ[1])
			fallthrough
		case termJump:
			b.edge[0] = c.edge(ib, ib.Succs[0], b.succ[0])
		}
	}
	p.moves = c.moves
	return p
}

// compiler is one Compile's working state.
type compiler struct {
	info   *ssa.Info
	p      *Program
	byID   []int32 // block ID → index, -1 unassigned
	extra  map[*ir.Block]int32
	params map[string]int64
	arrays map[string]int64
	moves  []int32
}

// index returns b's block index, assigning the next one (and queueing
// b for compilation) on first sight. Blocks are found by following
// successors from the entry, as execution does; one whose ID is out of
// range or taken by another block is indexed through a map.
func (c *compiler) index(b *ir.Block) int32 {
	if b.ID >= 0 && b.ID < len(c.byID) {
		if x := c.byID[b.ID]; x >= 0 && c.p.irBlocks[x] == b {
			return x
		} else if x < 0 {
			c.byID[b.ID] = c.add(b)
			return c.byID[b.ID]
		}
	}
	if x, ok := c.extra[b]; ok {
		return x
	}
	if c.extra == nil {
		c.extra = map[*ir.Block]int32{}
	}
	c.extra[b] = c.add(b)
	return c.extra[b]
}

func (c *compiler) add(b *ir.Block) int32 {
	c.p.irBlocks = append(c.p.irBlocks, b)
	c.p.blocks = append(c.p.blocks, block{})
	return int32(len(c.p.irBlocks) - 1)
}

// text interns an error text.
func (c *compiler) text(s string) int32 {
	c.p.texts = append(c.p.texts, s)
	return int32(len(c.p.texts) - 1)
}

// cannot is the error text of a value the interpreter cannot execute.
func cannot(v *ir.Value) string {
	if v == nil {
		return "interp: cannot execute <nil>"
	}
	return fmt.Sprintf("interp: cannot execute %s", v.LongString())
}

// operand returns v's i-th argument's value ID, or false when v has no
// such argument or it lies outside the function's value slots.
func (c *compiler) operand(v *ir.Value, i int) (int32, bool) {
	if i >= len(v.Args) || v.Args[i] == nil {
		return 0, false
	}
	id := v.Args[i].ID
	return int32(id), id >= 0 && id < c.p.nvals
}

// block compiles the values and transfer of block index i.
func (c *compiler) block(i int32) {
	p := c.p
	b := p.irBlocks[i]
	cb := block{lo: int32(len(p.code))}
	leading := true
	for _, v := range b.Values {
		in := inst{slot: -1}
		if v != nil && v.ID >= 0 && v.ID < p.nvals {
			in.dst = int32(v.ID)
			in.slot = int32(c.info.VarIndex(v))
			in.op, in.aux = c.operation(v, &in, leading, cb.nphi)
		}
		if in.op == opBad {
			in.slot, in.aux = -1, int64(c.text(cannot(v)))
		}
		if in.op == opPhi {
			cb.nphi++
		} else {
			leading = false // a bad φ ends the run: those after it are bad too
		}
		p.code = append(p.code, in)
		p.irVals = append(p.irVals, v)
	}
	cb.hi = int32(len(p.code))
	p.maxPhi = max(p.maxPhi, int(cb.nphi))

	bad := func(format string, args ...any) {
		cb.term, cb.err = termBad, c.text(fmt.Sprintf(format, args...))
	}
	switch b.Kind {
	case ir.BlockExit:
		cb.term = termExit
	case ir.BlockPlain:
		if len(b.Succs) < 1 || b.Succs[0] == nil {
			bad("interp: cannot leave block %s: no successor", b)
			break
		}
		cb.term = termJump
		cb.succ[0] = c.index(b.Succs[0])
	case ir.BlockIf:
		if len(b.Succs) < 2 || b.Succs[0] == nil || b.Succs[1] == nil {
			bad("interp: cannot leave block %s: %d successors for a branch", b, len(b.Succs))
			break
		}
		if ctl := b.Control; ctl == nil || ctl.ID < 0 || ctl.ID >= p.nvals {
			bad("interp: cannot leave block %s: no control value", b)
			break
		}
		cb.term, cb.ctrl = termIf, int32(b.Control.ID)
		cb.succ[0] = c.index(b.Succs[0])
		cb.succ[1] = c.index(b.Succs[1])
	default:
		bad("interp: cannot leave block %s of kind %d", b, b.Kind)
	}
	p.blocks[i] = cb
}

// operation returns the opcode and aux operand of v, filling in's
// operands; opBad when v's operands do not fit its op. leading says
// whether v is still in its block's leading run of φs, nphi how many
// precede it there.
func (c *compiler) operation(v *ir.Value, in *inst, leading bool, nphi int32) (op, int64) {
	if v.Op == ir.OpPhi {
		if !leading {
			return opBad, 0
		}
		return opPhi, int64(nphi)
	}
	if int(v.Op) >= len(ops) || ops[v.Op].op == opBad {
		return opBad, 0
	}
	a := ops[v.Op]
	var ok bool
	if a.n >= 1 {
		if in.a, ok = c.operand(v, 0); !ok {
			return opBad, 0
		}
	}
	if a.n >= 2 {
		if in.b, ok = c.operand(v, 1); !ok {
			return opBad, 0
		}
	}
	switch a.op {
	case opConst:
		return opConst, v.Const
	case opParam:
		return opParam, c.intern(&c.params, &c.p.params, v.Var)
	case opLoad, opStore:
		return a.op, c.intern(&c.arrays, &c.p.arrays, v.Var)
	}
	return a.op, 0
}

// intern returns name's index in list, appending it on first sight.
func (c *compiler) intern(ids *map[string]int64, list *[]string, name string) int64 {
	if *ids == nil {
		*ids = map[string]int64{}
	}
	if x, ok := (*ids)[name]; ok {
		return x
	}
	(*ids)[name] = int64(len(*list))
	*list = append(*list, name)
	return int64(len(*list) - 1)
}

// edge resolves entering block to (index to) from prev: the offset in
// moves of the values its φs read, 0 when it has none, or the negative
// -(text+1) of the error entering raises — a predecessor the block does
// not list, or a φ without an argument in prev's slot.
func (c *compiler) edge(prev, to *ir.Block, idx int32) int32 {
	p := c.p
	b := p.blocks[idx]
	if b.nphi == 0 {
		return 0
	}
	phis := p.irVals[b.lo : b.lo+b.nphi]
	slot := to.PredIndexOf(prev)
	if slot < 0 {
		return -(c.text(fmt.Sprintf("interp: φ %s executed with unknown predecessor %v", phis[0], prev)) + 1)
	}
	off := int32(len(c.moves))
	for _, v := range phis {
		id, ok := c.operand(v, slot)
		if !ok {
			c.moves = c.moves[:off]
			return -(c.text(cannot(v)) + 1)
		}
		c.moves = append(c.moves, id)
	}
	return off
}

// Run executes the compiled program under cfg, with the semantics of
// the package doc and the step counting of RunSSA: every executed
// value is one step.
func (p *Program) Run(cfg Config, hooks Hooks) (*Result, error) {
	vals := make([]int64, p.nvals+len(p.vars)+p.maxPhi)
	scal, phi := vals[p.nvals:p.nvals+len(p.vars)], vals[p.nvals+len(p.vars):]
	set := make([]bool, len(p.vars))
	cells := make([]map[int64]int64, len(p.arrays))
	base := cfg.arrays()
	limit := cfg.maxSteps()
	steps, empty := 0, 0
	var writes []ArrayWrite

	if p.entry < 0 {
		return &Result{Scalars: map[string]int64{}}, nil
	}
	bi, edge := p.entry, p.entryEdge
	for {
		b := &p.blocks[bi]
		if hooks.OnBlock != nil {
			hooks.OnBlock(p.irBlocks[bi])
		}
		if b.nphi > 0 {
			if edge < 0 {
				return nil, errors.New(p.texts[-edge-1])
			}
			for k, id := range p.moves[edge : edge+b.nphi] {
				phi[k] = vals[id]
			}
		}
		if b.lo == b.hi {
			// More empty blocks in a row than there are blocks is a
			// cycle in which nothing changes: it never ends, and counts
			// no step that would stop it.
			if empty++; empty > len(p.blocks) {
				return nil, ErrStepLimit
			}
		} else {
			empty = 0
		}
		// Run the block's values up to the step limit, then trip it at
		// the value that passes it, as RunSSA counts.
		hi := b.hi
		if left := limit - steps; int(hi-b.lo) > left {
			hi = b.lo + int32(max(left, 0))
		}
		steps += int(hi - b.lo)
		for pc := b.lo; pc < hi; pc++ {
			in := &p.code[pc]
			var x int64
			switch in.op {
			case opPhi:
				x = phi[in.aux]
			case opConst:
				x = in.aux
			case opParam:
				x = cfg.Params[p.params[in.aux]]
			case opCopy:
				x = vals[in.a]
			case opAdd:
				x = vals[in.a] + vals[in.b]
			case opSub:
				x = vals[in.a] - vals[in.b]
			case opMul:
				x = vals[in.a] * vals[in.b]
			case opDiv:
				x = evalDiv(vals[in.a], vals[in.b])
			case opExp:
				x = evalExp(vals[in.a], vals[in.b])
			case opNeg:
				x = -vals[in.a]
			case opLoad:
				idx := vals[in.a]
				v, ok := cells[in.aux][idx]
				if !ok {
					v = base(p.arrays[in.aux], idx)
				}
				x = v
			case opStore:
				idx := vals[in.a]
				x = vals[in.b]
				row := cells[in.aux]
				if row == nil {
					row = map[int64]int64{}
					cells[in.aux] = row
				}
				row[idx] = x
				w := ArrayWrite{Array: p.arrays[in.aux], Index: idx, Value: x}
				if hooks.OnStore != nil {
					if err := hooks.OnStore(w); err != nil {
						return nil, err
					}
				} else {
					writes = append(writes, w)
				}
			case opLess:
				x = boolToInt(vals[in.a] < vals[in.b])
			case opLeq:
				x = boolToInt(vals[in.a] <= vals[in.b])
			case opGreater:
				x = boolToInt(vals[in.a] > vals[in.b])
			case opGeq:
				x = boolToInt(vals[in.a] >= vals[in.b])
			case opEq:
				x = boolToInt(vals[in.a] == vals[in.b])
			case opNeq:
				x = boolToInt(vals[in.a] != vals[in.b])
			default:
				return nil, errors.New(p.texts[in.aux])
			}
			vals[in.dst] = x
			if in.slot >= 0 {
				scal[in.slot], set[in.slot] = x, true
			}
			if hooks.OnEval != nil {
				hooks.OnEval(p.irVals[pc], x)
			}
		}
		if hi < b.hi {
			return nil, ErrStepLimit
		}
		switch b.term {
		case termExit:
			n := 0
			for _, ok := range set {
				if ok {
					n++
				}
			}
			scalars := make(map[string]int64, n)
			for s, ok := range set {
				if ok {
					scalars[p.vars[s]] = scal[s]
				}
			}
			return &Result{Scalars: scalars, Writes: writes}, nil
		case termJump:
			bi, edge = b.succ[0], b.edge[0]
		case termIf:
			k := 1
			if vals[b.ctrl] != 0 {
				k = 0
			}
			bi, edge = b.succ[k], b.edge[k]
		default:
			return nil, errors.New(p.texts[b.err])
		}
	}
}
