// Regression tests for the AnalyzeProgramWith safety contract. Before
// the engine refactor this entry point ran the phases unguarded — no
// limit normalization, no panic containment — so a hostile input that
// the beyondiv facade would reject could crash or hang a caller who
// came in through iv directly. These tests pin the fixed behavior:
// every phase of its pipeline, Passes, fails closed exactly as it does
// through the facade, under the default ceilings AnalyzeProgramWith
// applies and under limits and fault hooks set on the engine.
package iv

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"beyondiv/internal/engine"
	"beyondiv/internal/guard"
	"beyondiv/internal/obs"
	"beyondiv/internal/scratch"
)

const pipelineSrc = `
j = 0
L1: for i = 1 to 10 {
    j = j + i
    a[j] = a[j - 1]
}
L2: for k = 1 to 5 {
    b[k] = b[k] + 1
}
`

// pipelinePhases is every guarded phase AnalyzeProgramWith runs.
var pipelinePhases = []string{"scan", "parse", "cfgbuild", "ssa", "loops", "sccp", "iv"}

// analyzeUnder runs AnalyzeProgramWith's pipeline on pipelineSrc on an
// engine whose limits are lim.
func analyzeUnder(lim guard.Limits) error {
	_, err := engine.New(engine.Config{Passes: Passes(Options{}), Limits: lim}).Analyze(pipelineSrc)
	return err
}

// TestAnalyzeProgramWithContainsInjectedPanics: a panic injected via
// guard.Inject into any phase comes back as a structured *engine.Error
// naming the phase and carrying the containment stack — never as an
// uncontained panic.
func TestAnalyzeProgramWithContainsInjectedPanics(t *testing.T) {
	for _, phase := range pipelinePhases {
		t.Run(phase, func(t *testing.T) {
			err := analyzeUnder(guard.Limits{Inject: guard.PanicIn(phase)})
			var e *engine.Error
			if !errors.As(err, &e) {
				t.Fatalf("err = %v (%T), want *engine.Error", err, err)
			}
			if e.Phase != phase {
				t.Errorf("fault attributed to phase %q, want %q", e.Phase, phase)
			}
			if len(e.Stack) == 0 {
				t.Error("contained panic lost its stack")
			}
			var f *guard.Fault
			if !errors.As(err, &f) {
				t.Errorf("error chain lost the injected fault: %v", err)
			}
		})
	}
}

// TestAnalyzeProgramWithReportsInjectedLimits: a simulated
// resource-ceiling hit in any phase surfaces as a *guard.LimitError
// inside a phase-attributed *engine.Error, without a panic stack (a
// limit hit is the guard working, not a bug).
func TestAnalyzeProgramWithReportsInjectedLimits(t *testing.T) {
	for _, phase := range pipelinePhases {
		t.Run(phase, func(t *testing.T) {
			err := analyzeUnder(guard.Limits{Inject: guard.LimitIn(phase)})
			var e *engine.Error
			if !errors.As(err, &e) || e.Phase != phase {
				t.Fatalf("err = %v, want *engine.Error in phase %q", err, phase)
			}
			var le *guard.LimitError
			if !errors.As(err, &le) || le.Phase != phase {
				t.Errorf("error chain lost the limit error: %v", err)
			}
			if e.Stack != nil {
				t.Error("limit hit carries a containment stack; it should not")
			}
		})
	}
}

// TestAnalyzeProgramWithDefaultCeilings: AnalyzeProgramWith enforces
// the guard.Default ceilings — the exact gap the engine refactor
// closed. Deeply nested parentheses must be rejected, not recursed
// into.
func TestAnalyzeProgramWithDefaultCeilings(t *testing.T) {
	hostile := "j = " + strings.Repeat("(", 100_000) + "1" + strings.Repeat(")", 100_000) + "\n"
	_, err := AnalyzeProgramWith(hostile, Options{})
	var le *guard.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("hostile input error = %v, want a limit hit under default ceilings", err)
	}
	if le.Resource != "nesting depth" {
		t.Errorf("limit resource = %q, want nesting depth", le.Resource)
	}
}

// TestAnalyzeProgramWithCustomLimit: an explicit ceiling on the
// engine is honored on this pipeline.
func TestAnalyzeProgramWithCustomLimit(t *testing.T) {
	err := analyzeUnder(guard.Limits{MaxSourceBytes: 8})
	var le *guard.LimitError
	if !errors.As(err, &le) || le.Resource != "source bytes" {
		t.Fatalf("err = %v, want source bytes limit", err)
	}
}

// TestValueByNameIndex: the construction-time index answers name
// lookups for every value in the function, agreeing with a full scan,
// and misses return nil.
func TestValueByNameIndex(t *testing.T) {
	a, err := AnalyzeProgram(pipelineSrc)
	if err != nil {
		t.Fatal(err)
	}
	names := 0
	for _, b := range a.SSA.Func.Blocks {
		for _, v := range b.Values {
			if v.Name == "" {
				continue
			}
			names++
			if got := a.ValueByName(v.Name); got == nil {
				t.Errorf("ValueByName(%q) = nil", v.Name)
			} else if got.Name != v.Name {
				t.Errorf("ValueByName(%q) returned %q", v.Name, got.Name)
			}
		}
	}
	if names == 0 {
		t.Fatal("program produced no named values")
	}
	if a.ValueByName("no_such_value") != nil {
		t.Error("lookup of an unknown name is non-nil")
	}
}

// TestLoopByLabelIndex: labeled loops resolve through the index; an
// unknown label is nil.
func TestLoopByLabelIndex(t *testing.T) {
	a, err := AnalyzeProgram(pipelineSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"L1", "L2"} {
		l := a.LoopByLabel(label)
		if l == nil {
			t.Fatalf("LoopByLabel(%q) = nil", label)
		}
		if l.Label != label {
			t.Errorf("LoopByLabel(%q) returned loop %q", label, l.Label)
		}
	}
	if a.LoopByLabel("L99") != nil {
		t.Error("unknown label resolved to a loop")
	}
}

// TestAnalysisDropsRun: an Analysis returned by an engine run holds
// none of that run's state — recorder, context, inject hook, step pool,
// budget or arena — so a cached Analysis neither pins nor reports into
// a finished run.
func TestAnalysisDropsRun(t *testing.T) {
	rec := obs.New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := 0
	eng := engine.New(engine.Config{
		Passes: Passes(Options{}),
		Obs:    rec,
		Limits: guard.Limits{Inject: func(string) { fired++ }, Pool: guard.NewPool(1 << 40)},
		Jobs:   1,
	})
	item := eng.AnalyzeAllContext(ctx, []string{pipelineSrc})[0]
	if item.Err != nil {
		t.Fatal(item.Err)
	}
	if fired == 0 || rec.CounterTotal("iv.") == 0 {
		t.Fatalf("the run's hook fired %d times and its recorder counted %d iv events", fired, rec.CounterTotal("iv."))
	}
	if held := heldRun(reflect.ValueOf(AnalysisOf(item.State)), "Analysis", map[visit]bool{}); len(held) != 0 {
		t.Errorf("the analysis holds its run at %s", strings.Join(held, ", "))
	}
}

// runTypes are the types of a run's state.
var runTypes = []reflect.Type{
	reflect.TypeFor[*obs.Recorder](),
	reflect.TypeFor[*obs.Span](),
	reflect.TypeFor[context.Context](),
	reflect.TypeFor[guard.Inject](),
	reflect.TypeFor[*guard.Pool](),
	reflect.TypeFor[*guard.Budget](),
	reflect.TypeFor[*scratch.Arena](),
}

type visit struct {
	ptr uintptr
	typ reflect.Type
}

// heldRun returns the path of every non-nil value of a run type
// reachable from v.
func heldRun(v reflect.Value, path string, seen map[visit]bool) (held []string) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Map, reflect.Slice, reflect.Func, reflect.Chan:
		if v.IsNil() {
			return nil
		}
	}
	t := v.Type()
	if slices.Contains(runTypes, t) || t.Kind() == reflect.Pointer && t.Implements(runTypes[2]) {
		return []string{path + " (" + t.String() + ")"}
	}
	switch v.Kind() {
	case reflect.Pointer:
		k := visit{v.Pointer(), t}
		if seen[k] {
			return nil
		}
		seen[k] = true
		return heldRun(v.Elem(), path, seen)
	case reflect.Interface:
		return heldRun(v.Elem(), path, seen)
	case reflect.Struct:
		for i := range v.NumField() {
			held = append(held, heldRun(v.Field(i), path+"."+t.Field(i).Name, seen)...)
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			held = append(held, heldRun(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen)...)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			held = append(held, heldRun(it.Key(), path+"{key}", seen)...)
			held = append(held, heldRun(it.Value(), path+"{value}", seen)...)
		}
	}
	return held
}
