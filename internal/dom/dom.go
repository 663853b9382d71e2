// Package dom computes dominator trees and dominance frontiers over the
// ir CFG, using the iterative algorithm of Cooper, Harvey and Kennedy
// ("A Simple, Fast Dominance Algorithm"), plus the dominance-frontier
// construction from Cytron et al. that drives φ placement in internal/ssa.
package dom

import "beyondiv/internal/ir"

// Tree is a dominator tree over the reachable blocks of a function.
// It also serves as a postdominator tree (NewPost): the same structure
// over the reversed CFG, where Dominates(a, b) reads "a postdominates
// b".
type Tree struct {
	f    *ir.Func
	root *ir.Block
	// preds/succs realize the (possibly reversed) edge direction.
	preds func(*ir.Block) []*ir.Block
	succs func(*ir.Block) []*ir.Block
	// idom[b.ID] is the immediate dominator; nil for the entry block and
	// for unreachable blocks.
	idom []*ir.Block
	// children[b.ID] lists blocks immediately dominated by b.
	children [][]*ir.Block
	// pre/post order numbers of the dominator tree for O(1) dominance
	// queries.
	pre, post []int
	// rpoIndex[b.ID] is the block's reverse-postorder position, used
	// during construction and exported for deterministic iteration.
	rpoIndex []int
	rpo      []*ir.Block
}

// New computes the dominator tree of f's reachable blocks.
func New(f *ir.Func) *Tree {
	return build(f, f.Entry,
		func(b *ir.Block) []*ir.Block { return b.Preds },
		func(b *ir.Block) []*ir.Block { return b.Succs })
}

// NewPost computes the postdominator tree: dominators over the reversed
// CFG rooted at f.Exit. Dominates(a, b) then means "every path from b
// to the exit passes through a". Blocks that cannot reach the exit
// (infinite loops) postdominate nothing and are postdominated by
// nothing.
func NewPost(f *ir.Func) *Tree {
	return build(f, f.Exit,
		func(b *ir.Block) []*ir.Block { return b.Succs },
		func(b *ir.Block) []*ir.Block { return b.Preds })
}

func build(f *ir.Func, root *ir.Block, preds, succs func(*ir.Block) []*ir.Block) *Tree {
	t := &Tree{
		f:        f,
		root:     root,
		preds:    preds,
		succs:    succs,
		idom:     make([]*ir.Block, f.NumBlocks()),
		children: make([][]*ir.Block, f.NumBlocks()),
		pre:      make([]int, f.NumBlocks()),
		post:     make([]int, f.NumBlocks()),
		rpoIndex: make([]int, f.NumBlocks()),
	}
	t.rpo = reversePostorderFrom(f, root, succs)
	for i := range t.rpoIndex {
		t.rpoIndex[i] = -1
	}
	for i, b := range t.rpo {
		t.rpoIndex[b.ID] = i
	}

	// Cooper-Harvey-Kennedy iteration. The root's idom is itself during
	// the fixpoint, cleared afterwards.
	t.idom[root.ID] = root
	changed := true
	for changed {
		changed = false
		for _, b := range t.rpo {
			if b == root {
				continue
			}
			var newIdom *ir.Block
			for _, p := range preds(b) {
				if t.idom[p.ID] == nil {
					continue // unprocessed or unreachable
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = t.intersect(p, newIdom)
				}
			}
			if newIdom != nil && t.idom[b.ID] != newIdom {
				t.idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	t.idom[root.ID] = nil

	for _, b := range t.rpo {
		if d := t.idom[b.ID]; d != nil {
			t.children[d.ID] = append(t.children[d.ID], b)
		}
	}

	// Number the dominator tree for O(1) Dominates queries.
	counter := 0
	type frame struct {
		b    *ir.Block
		next int
	}
	stack := []frame{{b: root}}
	t.pre[root.ID] = counter
	counter++
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next < len(t.children[fr.b.ID]) {
			c := t.children[fr.b.ID][fr.next]
			fr.next++
			t.pre[c.ID] = counter
			counter++
			stack = append(stack, frame{b: c})
			continue
		}
		t.post[fr.b.ID] = counter
		counter++
		stack = stack[:len(stack)-1]
	}
	return t
}

// intersect walks two blocks up the (partial) dominator tree to their
// common ancestor, comparing by reverse-postorder index.
func (t *Tree) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for t.rpoIndex[a.ID] > t.rpoIndex[b.ID] {
			a = t.idom[a.ID]
		}
		for t.rpoIndex[b.ID] > t.rpoIndex[a.ID] {
			b = t.idom[b.ID]
		}
	}
	return a
}

// Idom returns the immediate dominator of b, or nil for the entry block
// and unreachable blocks.
func (t *Tree) Idom(b *ir.Block) *ir.Block { return t.idom[b.ID] }

// Children returns the blocks whose immediate dominator is b.
func (t *Tree) Children(b *ir.Block) []*ir.Block { return t.children[b.ID] }

// Reachable reports whether b was reachable (from the root, along the
// tree's edge direction) when the tree was built.
func (t *Tree) Reachable(b *ir.Block) bool {
	return b == t.root || t.idom[b.ID] != nil
}

// Dominates reports whether a dominates b (reflexively: a dominates a).
// Unreachable blocks dominate nothing and are dominated by nothing.
func (t *Tree) Dominates(a, b *ir.Block) bool {
	if !t.Reachable(a) || !t.Reachable(b) {
		return false
	}
	return t.pre[a.ID] <= t.pre[b.ID] && t.post[b.ID] <= t.post[a.ID]
}

// ReversePostorder returns the reachable blocks in reverse postorder
// (computed once at construction).
func (t *Tree) ReversePostorder() []*ir.Block { return t.rpo }

// RPOIndex returns b's position in ReversePostorder, -1 if unreachable.
func (t *Tree) RPOIndex(b *ir.Block) int { return t.rpoIndex[b.ID] }

// Frontiers computes the dominance frontier of every reachable block,
// indexed by block ID (Cytron et al., §4.2): DF(b) contains each block w
// such that b dominates a predecessor of w but does not strictly
// dominate w.
func (t *Tree) Frontiers() [][]*ir.Block {
	df := make([][]*ir.Block, t.f.NumBlocks())
	inDF := make(map[[2]int]bool) // (b, w) pairs already added
	for _, w := range t.rpo {
		if len(t.preds(w)) < 2 {
			continue
		}
		wIdom := t.idom[w.ID]
		for _, p := range t.preds(w) {
			if !t.Reachable(p) {
				continue
			}
			runner := p
			for runner != nil && runner != wIdom {
				key := [2]int{runner.ID, w.ID}
				if !inDF[key] {
					inDF[key] = true
					df[runner.ID] = append(df[runner.ID], w)
				}
				runner = t.idom[runner.ID]
			}
		}
	}
	return df
}

// reversePostorderFrom computes reverse postorder from root following
// the given successor function (iteratively, as ir.Postorder does).
func reversePostorderFrom(f *ir.Func, root *ir.Block, succs func(*ir.Block) []*ir.Block) []*ir.Block {
	seen := make([]bool, f.NumBlocks())
	var order []*ir.Block
	type frame struct {
		b    *ir.Block
		next int
	}
	stack := []frame{{b: root}}
	seen[root.ID] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		adv := false
		for fr.next < len(succs(fr.b)) {
			s := succs(fr.b)[fr.next]
			fr.next++
			if !seen[s.ID] {
				seen[s.ID] = true
				stack = append(stack, frame{b: s})
				adv = true
				break
			}
		}
		if adv {
			continue
		}
		order = append(order, fr.b)
		stack = stack[:len(stack)-1]
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}
