package interp_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"beyondiv/internal/cfgbuild"
	"beyondiv/internal/cliutil"
	"beyondiv/internal/engine"
	"beyondiv/internal/interp"
	"beyondiv/internal/ir"
	"beyondiv/internal/paper"
	"beyondiv/internal/parse"
	"beyondiv/internal/progen"
	"beyondiv/internal/ssa"
)

// event is one hook call: a block entry (val unused) or an evaluation.
type event struct {
	block bool
	id    int
	val   int64
}

// outcome is one run as the hooks and the caller saw it.
type outcome struct {
	res    *interp.Result
	err    string
	events []event
}

// errHang stops a reference run that entered a cycle of empty blocks,
// which the reference never leaves.
var errHang = errors.New("empty cycle")

// observe runs the reference interpreter with hooks recording every
// event. A run that enters more blocks in a row than the function has
// without evaluating a value is in a cycle of empty blocks, which the
// reference never leaves: observe stops it and reports it hung.
func observe(info *ssa.Info, cfg interp.Config) (o outcome, hung bool) {
	empty := 0
	hooks := interp.Hooks{
		OnBlock: func(b *ir.Block) {
			o.events = append(o.events, event{block: true, id: b.ID})
			if empty++; empty > info.Func.NumBlocks()+1 {
				panic(errHang)
			}
		},
		OnEval: func(v *ir.Value, x int64) {
			o.events = append(o.events, event{id: v.ID, val: x})
			empty = 0
		},
	}
	defer func() {
		if r := recover(); r != nil {
			if r != errHang {
				panic(r)
			}
			hung = true
		}
	}()
	res, err := interp.RunSSAHookedRef(info, cfg, hooks)
	o.res = res
	if err != nil {
		o.err = err.Error()
	}
	return o, false
}

// matchReference runs info through the reference and the compiled
// interpreter under cfg and reports the first difference. It returns
// the steps the reference took, -1 when the reference hangs.
func matchReference(info *ssa.Info, cfg interp.Config) (steps int, err error) {
	want, hung := observe(info, cfg)
	// The compiled run's hook calls are checked against the reference's
	// as they happen.
	n, diff := 0, ""
	next := func(e event) {
		switch {
		case diff != "":
		case n >= len(want.events):
			diff = fmt.Sprintf("hook call %d is %+v, past the reference's %d", n, e, len(want.events))
		case e != want.events[n]:
			diff = fmt.Sprintf("hook call %d is %+v, reference %+v", n, e, want.events[n])
		}
		n++
	}
	res, rerr := interp.Compile(info).Run(cfg, interp.Hooks{
		OnBlock: func(b *ir.Block) { next(event{block: true, id: b.ID}) },
		OnEval:  func(v *ir.Value, x int64) { next(event{id: v.ID, val: x}) },
	})
	got := ""
	if rerr != nil {
		got = rerr.Error()
	}
	if diff != "" {
		return 0, errors.New(diff)
	}
	if hung {
		// The compiled form must stop in the cycle with the step limit,
		// having done what the reference did up to there.
		if got != interp.ErrStepLimit.Error() {
			return 0, fmt.Errorf("reference hangs in an empty cycle, compiled returned %q", got)
		}
		return -1, nil
	}
	if got != want.err {
		return 0, fmt.Errorf("error %q, reference %q", got, want.err)
	}
	if !reflect.DeepEqual(res, want.res) {
		return 0, fmt.Errorf("result %+v, reference %+v", res, want.res)
	}
	if n != len(want.events) {
		return 0, fmt.Errorf("%d hook calls, reference %d", n, len(want.events))
	}
	for _, e := range want.events {
		if !e.block {
			steps++
		}
	}
	return steps, nil
}

// program is one corpus entry.
type program struct{ name, src string }

// corpus is paper, the examples, DepWorkload 0–399 and 2^32+0–199, and
// progen 0–399.
func corpus(t *testing.T) []program {
	var ps []program
	for _, p := range paper.Corpus {
		ps = append(ps, program{p.ID, p.Source})
	}
	examples, err := cliutil.ReadPrograms([]string{filepath.Join("..", "..", "examples")})
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range examples {
		ps = append(ps, program{ex.Path, ex.Text})
	}
	for k := int64(0); k < 400; k++ {
		ps = append(ps, program{fmt.Sprint("dep/", k), progen.DepWorkload(k)})
	}
	for k := int64(0); k < 200; k++ {
		ps = append(ps, program{fmt.Sprint("dep/2^32+", k), progen.DepWorkload(1<<32 + k)})
	}
	gen := progen.New()
	for s := int64(0); s < 400; s++ {
		ps = append(ps, program{fmt.Sprint("progen/", s), gen.Program(s)})
	}
	return ps
}

// TestCompiledMatchesReference holds Compile + Run to the interpreter
// it replaced (ssainterp_ref_test.go): the same Result, error text and
// OnBlock/OnEval sequence at n = m = k ∈ {−3, 0, 7}, and the step limit
// tripping at exactly the reference's step — each program runs again
// with MaxSteps at its step count (it must finish) and one below it
// (it must stop at the same value).
func TestCompiledMatchesReference(t *testing.T) {
	const budget = 20_000
	for _, p := range corpus(t) {
		file, err := parse.File(p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		info := ssa.Build(cfgbuild.Build(file).Func)
		for _, x := range []int64{-3, 0, 7} {
			params := map[string]int64{"n": x, "m": x, "k": x}
			steps, err := matchReference(info, interp.Config{Params: params, MaxSteps: budget})
			if err != nil {
				t.Fatalf("%s at %d: %v", p.name, x, err)
			}
			if steps < 2 || steps > budget {
				continue // MaxSteps 0 is the default budget, not zero
			}
			for _, limit := range []int{steps, steps - 1} {
				if _, err := matchReference(info, interp.Config{Params: params, MaxSteps: limit}); err != nil {
					t.Fatalf("%s at %d, MaxSteps %d: %v", p.name, x, limit, err)
				}
			}
		}
	}
}

// TestCompiledMalformed: what the reference cannot execute — it panics
// or never ends — the compiled form reports as an error when execution
// reaches it, and execution up to there is the reference's.
func TestCompiledMalformed(t *testing.T) {
	build := func(src string) *ssa.Info {
		return ssa.Build(cfgbuild.Build(parse.MustParse(src)).Func)
	}
	first := func(info *ssa.Info, op ir.Op) *ir.Value {
		for _, b := range info.Func.Blocks {
			for _, v := range b.Values {
				if v.Op == op {
					return v
				}
			}
		}
		t.Fatalf("no %s value", op)
		return nil
	}
	t.Run("load without index", func(t *testing.T) {
		info := build("x = 1\ny = a[x]\nz = 2\n")
		ld := first(info, ir.OpLoadElem)
		ld.Args = nil
		_, err := interp.RunSSA(info, interp.Config{})
		if want := "interp: cannot execute " + ld.LongString(); err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
	})
	t.Run("store without value", func(t *testing.T) {
		info := build("i = 3\na[i] = i\n")
		st := first(info, ir.OpStoreElem)
		st.Args = st.Args[:1]
		var evals int
		_, err := interp.RunSSAHooked(info, interp.Config{}, interp.Hooks{OnEval: func(*ir.Value, int64) { evals++ }})
		if want := "interp: cannot execute " + st.LongString(); err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
		if evals == 0 {
			t.Error("values before the malformed store did not run")
		}
	})
	t.Run("empty loop", func(t *testing.T) {
		info := build("x = 1\nloop {\n}\n")
		if _, err := interp.RunSSA(info, interp.Config{}); err != interp.ErrStepLimit {
			t.Fatalf("err = %v, want the step limit", err)
		}
	})
	t.Run("rewritten after compile", func(t *testing.T) {
		info := build("s = 0\nfor i = 1 to 4 {\n    s = s + i\n    a[i] = s\n}\n")
		prog := interp.Compile(info)
		want, err := prog.Run(interp.Config{}, interp.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range info.Func.Blocks {
			for _, v := range b.Values {
				v.Op, v.Args = ir.OpConst, nil
			}
			b.Succs = nil
		}
		got, err := prog.Run(interp.Config{}, interp.Hooks{})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("run after rewriting the IR: %+v, %v; want %+v", got, err, want)
		}
	})
}

// TestOnStoreStops: OnStore sees each store in order in place of the
// trace, and its error ends the run.
func TestOnStoreStops(t *testing.T) {
	info := ssa.Build(cfgbuild.Build(parse.MustParse("for i = 1 to 5 {\n    a[i] = i\n}\n")).Func)
	stop := errors.New("stop")
	var seen []interp.ArrayWrite
	res, err := interp.RunSSAHooked(info, interp.Config{}, interp.Hooks{OnStore: func(w interp.ArrayWrite) error {
		seen = append(seen, w)
		if len(seen) == 3 {
			return stop
		}
		return nil
	}})
	if res != nil || err != stop {
		t.Fatalf("res %v, err %v; want the hook's error", res, err)
	}
	want := []interp.ArrayWrite{{Array: "a", Index: 1, Value: 1}, {Array: "a", Index: 2, Value: 2}, {Array: "a", Index: 3, Value: 3}}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("stores %v, want %v", seen, want)
	}
	res, err = interp.RunSSAHooked(info, interp.Config{}, interp.Hooks{OnStore: func(interp.ArrayWrite) error { return nil }})
	if err != nil || res.Writes != nil {
		t.Fatalf("with OnStore the trace must stay nil: %v, %v", res.Writes, err)
	}
}

// FuzzCompiledInterp: any source that analyzes runs identically under
// the compiled interpreter and the reference, within a small budget.
func FuzzCompiledInterp(f *testing.F) {
	for _, p := range paper.Corpus {
		f.Add(p.Source, int64(7))
	}
	gen := progen.New()
	for s := int64(0); s < 8; s++ {
		f.Add(gen.Program(s), int64(3))
	}
	f.Add(progen.DepWorkload(1<<32), int64(0))
	f.Add("x = 1\nloop {\n}\n", int64(0))
	f.Add("loop { x = x + 1 }", int64(0))
	f.Add("L1: for i = 1 to 10 { a[4611686018427387904 * i] = a[2305843009213693952 * i] }", int64(-3))
	f.Add("for i = 0 to 9223372036854775807 { a[i] = i }", int64(1))
	e := engine.New(engine.Config{Passes: engine.Frontend()})
	f.Fuzz(func(t *testing.T, src string, n int64) {
		if len(src) > 1<<12 {
			return
		}
		st, err := e.Analyze(src)
		if err != nil {
			return
		}
		cfg := interp.Config{Params: map[string]int64{"n": n, "m": n, "k": n}, MaxSteps: 20_000}
		if _, err := matchReference(st.SSA, cfg); err != nil {
			t.Fatal(err)
		}
	})
}
