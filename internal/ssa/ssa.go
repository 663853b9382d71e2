// Package ssa converts the tuple CFG into Static Single Assignment form
// following Cytron, Ferrante, Rosen, Wegman and Zadeck (TOPLAS 1991):
// φ-functions are placed at the iterated dominance frontier of each
// scalar variable's definition sites, and a dominator-tree walk renames
// every use to its unique reaching definition.
//
// After Build returns:
//   - no LoadVar/StoreVar instructions remain;
//   - every use of a scalar refers directly to its defining ir.Value,
//     which is exactly the "SSA graph" edge structure the classifier in
//     internal/iv traverses (paper §3);
//   - each definition carries a paper-style SSA name such as "i2"
//     (variable name + version, numbered from 1 in renaming order);
//   - variables read before any write are materialized as Param values
//     in the entry block (symbolic inputs like `n`).
//
// Construction works on dense tables indexed by value/block ID and by
// interned per-function variable indices — no pointer-keyed maps on the
// hot path — and all transient tables live in a reusable scratch
// arena (see BuildScratch) so batch runs stop paying the allocation
// tax.
package ssa

import (
	"fmt"
	"slices"
	"strconv"

	"beyondiv/internal/dom"
	"beyondiv/internal/guard"
	"beyondiv/internal/ir"
	"beyondiv/internal/obs"
	"beyondiv/internal/scratch"
)

// Info is the result of SSA construction.
type Info struct {
	Func *ir.Func
	Dom  *dom.Tree
	// Params maps variable names to their Param values, for variables
	// that are inputs to the program.
	Params map[string]*ir.Value

	// varNames is the function's interned variable symbol table (sorted)
	// and varOf maps value ID → index into it (-1: not a definition).
	varNames []string
	varOf    []int32
}

// VarOf returns the source variable an SSA definition (φ, param, or
// store-bound value) carries, or "" when v defines no variable. Values
// created after SSA construction (e.g. by transformations) are outside
// the dense table and report "".
func (i *Info) VarOf(v *ir.Value) string {
	if v == nil || v.ID < 0 || v.ID >= len(i.varOf) {
		return ""
	}
	if x := i.varOf[v.ID]; x >= 0 {
		return i.varNames[x]
	}
	return ""
}

// VarNames returns the function's interned variable symbol table,
// sorted; VarIndex indexes it. Callers must not modify it.
func (i *Info) VarNames() []string { return i.varNames }

// VarIndex returns the position in VarNames of the variable v carries,
// or -1 exactly when VarOf(v) is "".
func (i *Info) VarIndex(v *ir.Value) int {
	if v == nil || v.ID < 0 || v.ID >= len(i.varOf) {
		return -1
	}
	return int(i.varOf[v.ID])
}

// Build converts f to SSA form in place and returns the Info: no
// telemetry, no limits, fresh tables.
func Build(f *ir.Func) *Info { return BuildScratch(f, nil, guard.Limits{}, nil) }

// BuildScratch is Build under a run, the entry the engine's ssa pass
// calls. rec (nil: off) receives an "ssa" phase span with child spans
// for the dominator tree, φ placement, renaming, and cleanup, plus φ
// and value counters. φ insertion — the one step of Cytron
// construction that can blow the IR up quadratically — stops
// (panicking with a *guard.LimitError, contained by the engine) once
// the function exceeds lim.MaxSSAValues values. ar lends the transient
// working tables (definition stacks, φ worklists, use counts, …); a nil
// arena allocates fresh tables for a one-shot build. Only working
// storage is arena-backed — everything retained in the returned Info
// is freshly allocated.
func BuildScratch(f *ir.Func, rec *obs.Recorder, lim guard.Limits, ar *scratch.Arena) *Info {
	if ar != nil {
		return build(f, rec, lim, scratch.Get[buildScratch](&ar.SSA))
	}
	return build(f, rec, lim, &buildScratch{})
}

// build is BuildScratch on the scratch tables scr.
func build(f *ir.Func, rec *obs.Recorder, lim guard.Limits, scr *buildScratch) *Info {
	span := rec.Phase("ssa")
	defer span.End()
	sub := rec.Phase("dom")
	tree := dom.New(f)
	sub.End()
	st := &state{
		f:         f,
		tree:      tree,
		info:      &Info{Func: f, Dom: tree, Params: map[string]*ir.Value{}},
		scr:       scr,
		maxValues: lim.MaxSSAValues,
	}
	st.internVars()
	sub = rec.Phase("place-phis")
	st.placePhis()
	sub.End()
	sub = rec.Phase("rename")
	st.rename(f.Entry)
	sub.End()
	sub = rec.Phase("cleanup")
	st.hoistParams()
	st.stripLoadsStores()
	st.pruneDeadPhis()
	st.assignNames()
	sub.End()
	if rec != nil {
		phis, values := 0, 0
		for _, b := range f.Blocks {
			for _, v := range b.Values {
				values++
				if v.Op == ir.OpPhi {
					phis++
				}
			}
		}
		rec.Add("ssa.phis", int64(phis))
		rec.Add("ssa.values", int64(values))
	}
	return st.info
}

// buildScratch holds every transient table one SSA construction needs,
// reusable across runs. Tables are (re)sized and cleared by the state
// methods that use them; nothing here survives into the returned Info.
type buildScratch struct {
	varIdx   map[string]int32 // interning: variable name → index
	stacks   [][]*ir.Value    // per-variable reaching-definition stacks
	defSites [][]*ir.Block    // per-variable StoreVar blocks
	vers     []int32          // per-variable next SSA version
	loadDef  []*ir.Value      // value ID → definition a LoadVar resolved to
	uses     []int32          // value ID → use count (dead-φ pruning)
	phiGen   []uint32         // block ID → stamp: φ already placed (this var)
	workGen  []uint32         // block ID → stamp: block already enqueued
	gen      uint32           // current stamp for phiGen/workGen
	work     []*ir.Block      // φ-placement worklist
	newPhis  []int32          // block ID → φs placed in it (movePhis)
	moveWork int              // slots movePhis touched (tests pin it linear)
	pushed   []int32          // shared stack of pushed var indices (rename)
	frames   []renameFrame    // explicit dominator-tree walk stack
	valsA    []*ir.Value      // hoistParams split buffers
	valsB    []*ir.Value
	nameBuf  []byte // assignNames number formatting
}

type renameFrame struct {
	b    *ir.Block
	next int // next dominator-tree child to visit
	base int // pushed-stack watermark to pop back to
}

type state struct {
	f    *ir.Func
	tree *dom.Tree
	info *Info
	scr  *buildScratch

	// maxValues caps the function's value count during φ insertion;
	// zero is unchecked. See BuildScratch.
	maxValues int
}

// internVars builds the per-function symbol table: variable names in
// sorted order (so φ placement iterates variables deterministically,
// exactly as the map-based implementation did via VarNames).
func (s *state) internVars() {
	names := s.f.VarNames()
	s.info.varNames = names
	scr := s.scr
	if scr.varIdx == nil {
		scr.varIdx = make(map[string]int32, len(names))
	} else {
		clear(scr.varIdx)
	}
	for i, n := range names {
		scr.varIdx[n] = int32(i)
	}
	nv := len(names)
	scr.stacks = scratch.GrowReuse(scr.stacks, nv)
	scr.defSites = scratch.GrowReuse(scr.defSites, nv)
	scr.vers = scratch.Grow(scr.vers, nv)
	nb := s.f.NumBlocks()
	scr.phiGen = scratch.Grow(scr.phiGen, nb)
	scr.workGen = scratch.Grow(scr.workGen, nb)
	scr.newPhis = scratch.Grow(scr.newPhis, nb)
	scr.moveWork = 0
	scr.gen = 0
	s.info.varOf = make([]int32, 0, s.f.NumValues())
}

// varIndex returns the interned index of a variable name; every name
// reaching here came from a LoadVar/StoreVar/Param op, so it is always
// present.
func (s *state) varIndex(name string) int32 { return s.scr.varIdx[name] }

// setVarOf records that def carries the variable with index x, growing
// the dense table to cover IDs minted after interning (φs, params).
// First binding wins, as in the original map semantics.
func (s *state) setVarOf(def *ir.Value, x int32) {
	vo := s.info.varOf
	for def.ID >= len(vo) {
		vo = append(vo, -1)
	}
	if vo[def.ID] < 0 {
		vo[def.ID] = x
	}
	s.info.varOf = vo
}

// placePhis inserts φ values at the iterated dominance frontier of each
// variable's store sites, then moves each block's φs to its front, where
// renameBlock and the successor-φ fill expect them.
func (s *state) placePhis() {
	scr := s.scr
	df := s.tree.Frontiers()

	for _, b := range s.tree.ReversePostorder() {
		for _, v := range b.Values {
			if v.Op == ir.OpStoreVar {
				x := s.varIndex(v.Var)
				scr.defSites[x] = append(scr.defSites[x], b)
			}
		}
	}

	for x := range s.info.varNames {
		sites := scr.defSites[x]
		if len(sites) == 0 {
			continue
		}
		// Membership via generation stamps: one bump covers both the
		// φ-placed and in-worklist sets for this variable.
		scr.gen++
		gen := scr.gen
		work := append(scr.work[:0], sites...)
		for _, b := range work {
			scr.workGen[b.ID] = gen
		}
		for len(work) > 0 {
			blk := work[len(work)-1]
			work = work[:len(work)-1]
			for _, w := range df[blk.ID] {
				if scr.phiGen[w.ID] == gen {
					continue
				}
				scr.phiGen[w.ID] = gen
				s.newPhi(w, s.info.varNames[x])
				if scr.workGen[w.ID] != gen {
					scr.workGen[w.ID] = gen
					work = append(work, w)
				}
			}
		}
		scr.work = work[:0]
	}
	s.movePhis()
}

// newPhi appends a φ for variable name to block w with one slot per
// predecessor, and counts it for movePhis. The φ carries its variable in
// Var, which the rename walk reads back.
func (s *state) newPhi(w *ir.Block, name string) *ir.Value {
	guard.Check("ssa", "IR values", int64(s.f.NumValues()), int64(s.maxValues))
	phi := s.f.NewValue(w, ir.OpPhi, make([]*ir.Value, len(w.Preds))...)
	phi.Var = name
	s.scr.newPhis[w.ID]++
	return phi
}

// movePhis moves the k φs NewValue appended to each block to its front,
// newest first: the order that putting each φ first as it was made
// gives. Reversing the block brings them to the front in that order and
// reversing the rest restores the block's own order, in place and in
// time linear in the block.
func (s *state) movePhis() {
	for _, b := range s.f.Blocks {
		k := int(s.scr.newPhis[b.ID])
		if k == 0 {
			continue
		}
		slices.Reverse(b.Values)
		slices.Reverse(b.Values[k:])
		s.scr.moveWork += 2*len(b.Values) - k
	}
}

func (s *state) currentDef(x int32) *ir.Value {
	if st := s.scr.stacks[x]; len(st) > 0 {
		return st[len(st)-1]
	}
	// No definition reaches here: the variable is a symbolic input.
	name := s.info.varNames[x]
	if p, ok := s.info.Params[name]; ok {
		return p
	}
	// Appending is safe mid-walk; params are moved to the front of the
	// entry block once renaming finishes (see hoistParams).
	p := s.f.NewValue(s.f.Entry, ir.OpParam)
	p.Var = name
	s.setVarOf(p, x)
	s.info.Params[name] = p
	return p
}

// assignNames numbers each variable's surviving definitions from 1 in
// reverse-postorder program order ("i1", "i2", ...). Names are assigned
// after dead-φ pruning so that version numbers count only surviving
// definitions, matching the paper's numbering.
func (s *state) assignNames() {
	scr := s.scr
	varOf := s.info.varOf
	for _, b := range s.tree.ReversePostorder() {
		for _, v := range b.Values {
			if v.ID >= len(varOf) || varOf[v.ID] < 0 || v.Name != "" {
				continue
			}
			x := varOf[v.ID]
			scr.vers[x]++
			buf := append(scr.nameBuf[:0], s.info.varNames[x]...)
			scr.nameBuf = strconv.AppendInt(buf, int64(scr.vers[x]), 10)
			v.Name = string(scr.nameBuf)
		}
	}
}

// resolve rewrites v's arguments, replacing LoadVar references with the
// definitions they resolved to.
func (s *state) resolve(v *ir.Value) {
	for i, a := range v.Args {
		if a != nil && a.Op == ir.OpLoadVar {
			d := s.scr.loadDef[a.ID]
			if d == nil {
				panic(fmt.Sprintf("ssa: load %s of %q resolved after use", a, a.Var))
			}
			v.Args[i] = d
		}
	}
}

// rename performs the dominator-tree walk.
func (s *state) rename(entry *ir.Block) {
	scr := s.scr
	// All LoadVar values predate φ insertion, so the current value count
	// bounds every ID the table is indexed by.
	scr.loadDef = scratch.Grow(scr.loadDef, s.f.NumValues())
	scr.pushed = scr.pushed[:0]
	stack := scr.frames[:0]
	stack = append(stack, renameFrame{b: entry, base: 0})
	s.renameBlock(entry)
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		children := s.tree.Children(fr.b)
		if fr.next < len(children) {
			c := children[fr.next]
			fr.next++
			stack = append(stack, renameFrame{b: c, base: len(scr.pushed)})
			s.renameBlock(c)
			continue
		}
		for i := len(scr.pushed) - 1; i >= fr.base; i-- {
			x := scr.pushed[i]
			st := scr.stacks[x]
			scr.stacks[x] = st[:len(st)-1]
		}
		scr.pushed = scr.pushed[:fr.base]
		stack = stack[:len(stack)-1]
	}
	scr.frames = stack[:0]
}

// renameBlock processes one block: φ defs, loads, stores, ordinary
// values, the control value, and successor φ arguments. Pushed
// definitions are recorded on the shared pushed stack; the rename walk
// pops them when the block's dominator subtree is done.
func (s *state) renameBlock(b *ir.Block) {
	scr := s.scr
	push := func(x int32, def *ir.Value) {
		scr.stacks[x] = append(scr.stacks[x], def)
		scr.pushed = append(scr.pushed, x)
	}

	for _, v := range b.Values {
		switch v.Op {
		case ir.OpPhi:
			x := s.varIndex(v.Var)
			s.setVarOf(v, x)
			push(x, v)
		case ir.OpLoadVar:
			scr.loadDef[v.ID] = s.currentDef(s.varIndex(v.Var))
		case ir.OpStoreVar:
			s.resolve(v)
			def := v.Args[0]
			x := s.varIndex(v.Var)
			s.setVarOf(def, x)
			push(x, def)
		default:
			s.resolve(v)
		}
	}

	// Fill successor φ arguments with the defs live at this edge.
	for _, succ := range b.Succs {
		slot := succ.PredIndexOf(b)
		for _, v := range succ.Values {
			if v.Op != ir.OpPhi {
				break
			}
			v.Args[slot] = s.currentDef(s.varIndex(v.Var))
		}
	}
}

// hoistParams moves Param values to the front of the entry block so the
// textual order matches dominance order.
func (s *state) hoistParams() {
	entry := s.f.Entry
	params, rest := s.scr.valsA[:0], s.scr.valsB[:0]
	for _, v := range entry.Values {
		if v.Op == ir.OpParam {
			params = append(params, v)
		} else {
			rest = append(rest, v)
		}
	}
	entry.Values = append(entry.Values[:0], params...)
	entry.Values = append(entry.Values, rest...)
	s.scr.valsA, s.scr.valsB = params[:0], rest[:0]
}

// stripLoadsStores removes the now-dead scalar load/store instructions.
func (s *state) stripLoadsStores() {
	for _, b := range s.f.Blocks {
		out := b.Values[:0]
		for _, v := range b.Values {
			if v.Op == ir.OpLoadVar || v.Op == ir.OpStoreVar {
				continue
			}
			out = append(out, v)
		}
		b.Values = out
	}
}

// pruneDeadPhis removes φ (and param) values with no transitive non-φ
// uses; they arise for variables whose crossing definitions are never
// read. Leaving them would create spurious cycles in the SSA graph.
func (s *state) pruneDeadPhis() {
	uses := scratch.Grow(s.scr.uses, s.f.NumValues())
	s.scr.uses = uses
	for _, b := range s.f.Blocks {
		for _, v := range b.Values {
			for _, a := range v.Args {
				if a != v { // self-reference doesn't keep a φ alive
					uses[a.ID]++
				}
			}
		}
		if b.Control != nil {
			uses[b.Control.ID]++
		}
	}
	changed := true
	for changed {
		changed = false
		for _, b := range s.f.Blocks {
			out := b.Values[:0]
			for _, v := range b.Values {
				dead := (v.Op == ir.OpPhi || v.Op == ir.OpParam) && uses[v.ID] == 0
				if dead {
					for _, a := range v.Args {
						if a != v {
							uses[a.ID]--
						}
					}
					changed = true
					if v.Op == ir.OpParam {
						delete(s.info.Params, v.Var)
					}
					continue
				}
				out = append(out, v)
			}
			b.Values = out
		}
	}
}

// Verify checks SSA invariants and returns the violations found:
// no scalar loads/stores remain; φ arity matches predecessor count; φ
// arguments are defined; every non-φ use is dominated by its definition;
// every φ argument's definition dominates the corresponding predecessor.
// It runs in time linear in the function (see verify).
func Verify(info *Info) []error {
	errs, _ := verify(info)
	return errs
}

// site is where a value is defined: the last block listing it, and its
// first position there.
type site struct {
	b   *ir.Block
	pos int32
}

// verify is Verify, also returning its work: the value, argument and
// block slots it visited. Recording each value's position as the first
// loop records its block makes the same-block "definition precedes use"
// test one comparison.
func verify(info *Info) (errs []error, work int) {
	f, tree := info.Func, info.Dom
	sites := make([]site, f.NumValues())
	for _, b := range f.Blocks {
		work += len(b.Values)
		for i, v := range b.Values {
			if sites[v.ID].b != b {
				sites[v.ID] = site{b, int32(i)}
			}
		}
	}
	defOf := func(v *ir.Value) *ir.Block {
		if v.ID >= 0 && v.ID < len(sites) {
			return sites[v.ID].b
		}
		return nil
	}
	// precedes reports whether b, which defines a and lists v, lists a
	// first no later than v: a value precedes itself.
	precedes := func(b *ir.Block, a, v *ir.Value) bool {
		sa, sv := sites[a.ID], sites[v.ID]
		if sv.b == b && b.Values[sa.pos] == a && b.Values[sv.pos] == v {
			return sa.pos <= sv.pos
		}
		// Corrupt IR: a later block lists v too, or two values share an
		// ID. Scan the block.
		for _, w := range b.Values {
			work++
			if w == a {
				return true
			}
			if w == v {
				return false
			}
		}
		return false
	}
	for _, b := range f.Blocks {
		work++
		if !tree.Reachable(b) {
			continue
		}
		for _, v := range b.Values {
			work += 1 + len(v.Args)
			switch v.Op {
			case ir.OpLoadVar, ir.OpStoreVar:
				errs = append(errs, fmt.Errorf("%s: scalar %s survived SSA construction", v, v.Op))
				continue
			case ir.OpPhi:
				if len(v.Args) != len(b.Preds) {
					errs = append(errs, fmt.Errorf("%s: φ has %d args for %d preds", v, len(v.Args), len(b.Preds)))
					continue
				}
				for i, a := range v.Args {
					if a == nil {
						errs = append(errs, fmt.Errorf("%s: φ arg %d is nil", v, i))
						continue
					}
					d := defOf(a)
					if d == nil {
						errs = append(errs, fmt.Errorf("%s: φ arg %s has no defining block", v, a))
						continue
					}
					if !tree.Dominates(d, b.Preds[i]) {
						errs = append(errs, fmt.Errorf("%s: φ arg %s (def in %s) does not dominate pred %s", v, a, d, b.Preds[i]))
					}
				}
				continue
			}
			for _, a := range v.Args {
				d := defOf(a)
				if d == nil {
					errs = append(errs, fmt.Errorf("%s: arg %s has no defining block", v, a))
					continue
				}
				if d == b {
					// Same block: definition must precede use.
					if !precedes(b, a, v) {
						errs = append(errs, fmt.Errorf("%s: same-block use before def of %s", v, a))
					}
				} else if !tree.Dominates(d, b) {
					errs = append(errs, fmt.Errorf("%s: use not dominated by def of %s (in %s)", v, a, d))
				}
			}
		}
		if c := b.Control; c != nil {
			if d := defOf(c); d == nil || (d != b && !tree.Dominates(d, b)) {
				errs = append(errs, fmt.Errorf("%s: control %s not dominated by its def", b, c))
			}
		}
	}
	return errs, work
}
