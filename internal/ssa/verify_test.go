package ssa_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"beyondiv/internal/cfgbuild"
	"beyondiv/internal/cliutil"
	"beyondiv/internal/ir"
	"beyondiv/internal/paper"
	"beyondiv/internal/parse"
	"beyondiv/internal/progen"
	"beyondiv/internal/ssa"
)

// A program is one the tests build; corrupt marks the hand-written
// and small generated ones the corruption sweep runs on.
type program struct {
	name, src string
	corrupt   bool
}

// corpus is every program the Verify and φ-order tests build: the paper,
// the examples, DepWorkload 0–95, progen 0–319 and the E16 sweep with
// the other generated shapes.
func corpus(t *testing.T) []program {
	var ps []program
	for _, p := range paper.Corpus {
		ps = append(ps, program{p.ID, p.Source, true})
	}
	examples, err := cliutil.ReadPrograms([]string{filepath.Join("..", "..", "examples")})
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range examples {
		ps = append(ps, program{ex.Path, ex.Text, true})
	}
	for s := int64(0); s < 96; s++ {
		ps = append(ps, program{fmt.Sprint("dep/", s), progen.DepWorkload(s), true})
	}
	gen := progen.New()
	for s := int64(0); s < 320; s++ {
		src := gen.Program(s)
		ps = append(ps, program{fmt.Sprint("progen/", s), src, s < 64 && len(src) <= 1<<10})
	}
	for n := 128; n <= 8192; n *= 2 {
		ps = append(ps, program{fmt.Sprint("straight/", n), progen.StraightLineLoop(n), false})
	}
	return append(ps,
		program{"mutual/64", progen.MutualChain(64), false},
		program{"mixed/20", progen.MixedClasses(20), false},
		program{"large/12", progen.Large(12), false},
		program{"nested/4", progen.NestedLoops(4), true},
		program{"derived/8", progen.DerivedChain(8), true})
}

// build converts src to SSA form without verifying it.
func build(t *testing.T, src string) *ssa.Info {
	t.Helper()
	file, err := parse.File(src)
	if err != nil {
		t.Fatal(err)
	}
	return ssa.Build(cfgbuild.Build(file).Func)
}

func messages(errs []error) []string {
	out := make([]string, len(errs))
	for i, e := range errs {
		out[i] = e.Error()
	}
	return out
}

// site is a value and where its block lists it.
type site struct {
	b *ir.Block
	i int
	v *ir.Value
}

// sites lists, in block and value order, the reachable values keep admits.
func sites(info *ssa.Info, keep func(*ir.Value) bool) []site {
	var out []site
	for _, b := range info.Func.Blocks {
		if !info.Dom.Reachable(b) {
			continue
		}
		for i, v := range b.Values {
			if keep(v) {
				out = append(out, site{b, i, v})
			}
		}
	}
	return out
}

func isPhi(v *ir.Value) bool   { return v.Op == ir.OpPhi }
func hasArgs(v *ir.Value) bool { return v.Op != ir.OpPhi && len(v.Args) > 0 }

// outsider is the last value of the last block that does not dominate
// b, or nil.
func outsider(info *ssa.Info, b *ir.Block) *ir.Value {
	for i := len(info.Func.Blocks) - 1; i >= 0; i-- {
		d := info.Func.Blocks[i]
		if len(d.Values) > 0 && !info.Dom.Dominates(d, b) {
			return d.Values[len(d.Values)-1]
		}
	}
	return nil
}

// A corruption breaks the candidate site of info that pick chooses
// from the n it has, reporting whether there was one. fails says a
// correct Verify must report it on some program.
type corruption struct {
	name  string
	fails bool
	apply func(info *ssa.Info, pick func(n int) int) bool
}

var corruptions = []corruption{
	{"use before its definition in one block", true, func(info *ssa.Info, pick func(n int) int) bool {
		var cs []site
		for _, s := range sites(info, hasArgs) {
			if j := slices.Index(s.b.Values, s.v.Args[0]); j >= 0 && j < s.i {
				cs = append(cs, s)
			}
		}
		if len(cs) == 0 {
			return false
		}
		k := pick(len(cs))
		s := cs[k]
		j := slices.Index(s.b.Values, s.v.Args[0])
		s.b.Values[j], s.b.Values[s.i] = s.b.Values[s.i], s.b.Values[j]
		return true
	}},
	{"use its definition does not dominate", true, func(info *ssa.Info, pick func(n int) int) bool {
		var cs []site
		for _, s := range sites(info, hasArgs) {
			if outsider(info, s.b) != nil {
				cs = append(cs, s)
			}
		}
		if len(cs) == 0 {
			return false
		}
		k := pick(len(cs))
		cs[k].v.Args[0] = outsider(info, cs[k].b)
		return true
	}},
	{"value listed twice in one block", true, func(info *ssa.Info, pick func(n int) int) bool {
		cs := sites(info, hasArgs)
		if len(cs) == 0 {
			return false
		}
		k := pick(len(cs))
		cs[k].b.Values = append([]*ir.Value{cs[k].v}, cs[k].b.Values...)
		return true
	}},
	{"value listed in a later block too", true, func(info *ssa.Info, pick func(n int) int) bool {
		last := info.Func.Blocks[len(info.Func.Blocks)-1]
		cs := sites(info, func(v *ir.Value) bool { return v.Op != ir.OpPhi })
		if len(cs) == 0 {
			return false
		}
		k := pick(len(cs))
		if cs[k].b == last {
			return false
		}
		last.Values = append(last.Values, cs[k].v)
		return true
	}},
	{"value listed in an earlier block too", true, func(info *ssa.Info, pick func(n int) int) bool {
		entry := info.Func.Blocks[0]
		cs := sites(info, hasArgs)
		if len(cs) == 0 {
			return false
		}
		k := pick(len(cs))
		if cs[k].b == entry {
			return false
		}
		entry.Values = append(entry.Values, cs[k].v)
		return true
	}},
	{"self-use", false, func(info *ssa.Info, pick func(n int) int) bool {
		cs := sites(info, hasArgs)
		if len(cs) == 0 {
			return false
		}
		k := pick(len(cs))
		cs[k].v.Args[0] = cs[k].v
		return true
	}},
	{"definition listed in no block", true, func(info *ssa.Info, pick func(n int) int) bool {
		cs := sites(info, hasArgs)
		if len(cs) == 0 {
			return false
		}
		k := pick(len(cs))
		a := cs[k].v.Args[0]
		for _, b := range info.Func.Blocks {
			b.Values = slices.DeleteFunc(b.Values, func(v *ir.Value) bool { return v == a })
		}
		return true
	}},
	{"φ arity mismatch", true, func(info *ssa.Info, pick func(n int) int) bool {
		cs := sites(info, isPhi)
		if len(cs) == 0 {
			return false
		}
		k := pick(len(cs))
		cs[k].v.Args = cs[k].v.Args[:len(cs[k].v.Args)-1]
		return true
	}},
	{"nil φ argument", true, func(info *ssa.Info, pick func(n int) int) bool {
		cs := sites(info, isPhi)
		if len(cs) == 0 {
			return false
		}
		k := pick(len(cs))
		cs[k].v.Args[len(cs[k].v.Args)-1] = nil
		return true
	}},
	{"undominated control value", true, func(info *ssa.Info, pick func(n int) int) bool {
		var bs []*ir.Block
		for _, b := range info.Func.Blocks {
			if b.Control != nil && info.Dom.Reachable(b) && outsider(info, b) != nil {
				bs = append(bs, b)
			}
		}
		if len(bs) == 0 {
			return false
		}
		k := pick(len(bs))
		bs[k].Control = outsider(info, bs[k])
		return true
	}},
}

// TestVerifyMatchesReference: Verify returns exactly the errors of the
// scanning reference, in order, on every function the corpus builds,
// and on each corruption of the first, middle and last candidate sites
// of the paper, the examples, DepWorkload, NestedLoops(4),
// DerivedChain(8) and the progen programs below seed 64 of at most 1 KiB.
func TestVerifyMatchesReference(t *testing.T) {
	failed := make([]int, len(corruptions))
	for _, p := range corpus(t) {
		info := build(t, p.src)
		if got, want := messages(ssa.Verify(info)), messages(verifyRef(info)); len(want) != 0 || !slices.Equal(got, want) {
			t.Errorf("%s: Verify = %q, the reference %q", p.name, got, want)
		}
		if !p.corrupt {
			continue
		}
		for ci, c := range corruptions {
			for _, pick := range []func(n int) int{
				func(int) int { return 0 }, func(n int) int { return n / 2 }, func(n int) int { return n - 1 },
			} {
				info := build(t, p.src)
				if !c.apply(info, pick) {
					continue
				}
				got, want := messages(ssa.Verify(info)), messages(verifyRef(info))
				if !slices.Equal(got, want) {
					t.Errorf("%s, %s: Verify = %q, the reference %q", p.name, c.name, got, want)
				}
				if len(want) > 0 {
					failed[ci]++
				}
			}
		}
	}
	for ci, c := range corruptions {
		if c.fails && failed[ci] == 0 {
			t.Errorf("%s: no corrupted function failed verification", c.name)
		}
	}
}

// TestPhisLeadNewestFirst: in every block the φs are a prefix, newest
// (highest ID) first, the order renaming and every printed function
// expect.
func TestPhisLeadNewestFirst(t *testing.T) {
	for _, p := range corpus(t) {
		for _, b := range build(t, p.src).Func.Blocks {
			prev, body := -1, false
			for _, v := range b.Values {
				switch {
				case v.Op != ir.OpPhi:
					body = true
				case body:
					t.Errorf("%s: φ %s follows a non-φ in %s", p.name, v, b)
				case prev >= 0 && v.ID >= prev:
					t.Errorf("%s: φ %s (ID %d) follows ID %d in %s", p.name, v, v.ID, prev, b)
				default:
					prev = v.ID
				}
			}
		}
	}
}

// TestLinearWork pins Verify and the φ move linear by counting their
// work, not timing it, on the E16 sweep's two largest programs (one
// loop header holding a φ per variable): each stays within a constant
// per SSA value, and doubling the program at most about doubles it.
func TestLinearWork(t *testing.T) {
	type cost struct{ values, verify, move int }
	var costs []cost
	for _, n := range []int{4096, 8192} {
		file, err := parse.File(progen.StraightLineLoop(n))
		if err != nil {
			t.Fatal(err)
		}
		info, move := ssa.BuildMoveWork(cfgbuild.Build(file).Func)
		c := cost{move: move, verify: ssa.VerifyWork(info)}
		for _, b := range info.Func.Blocks {
			c.values += len(b.Values)
		}
		if c.verify > 6*c.values || c.move > 2*c.values {
			t.Errorf("StraightLineLoop(%d): %d SSA values, Verify work %d (bound %d), φ move work %d (bound %d)",
				n, c.values, c.verify, 6*c.values, c.move, 2*c.values)
		}
		t.Logf("StraightLineLoop(%d): %d SSA values, Verify work %d, φ move work %d", n, c.values, c.verify, c.move)
		costs = append(costs, c)
	}
	if a, b := costs[0], costs[1]; 10*b.verify > 22*a.verify || 10*b.move > 22*a.move {
		t.Errorf("doubling the program: Verify work %d → %d, φ move work %d → %d, want at most ×2.2",
			a.verify, b.verify, a.move, b.move)
	}
}
