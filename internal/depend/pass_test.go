package depend

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"beyondiv/internal/engine"
	"beyondiv/internal/guard"
	"beyondiv/internal/iv"
	"beyondiv/internal/obs"
	"beyondiv/internal/scratch"
)

// TestResultDropsRun: a Result returned by an engine run — here one
// whose pair sweep fans out — holds none of that run's state:
// recorder, context, inject hook, step pool, budget or arena, neither
// itself nor through the Analysis it keeps.
func TestResultDropsRun(t *testing.T) {
	const src = `
L1: for i = 1 to 10 {
    a[i] = a[i - 1] + a[i + 1] + a[i + 2] + a[i + 3]
    a[i + 4] = a[i - 2] + a[i - 3] + a[i - 4] + a[i + 5]
    a[i + 6] = a[i - 5] + a[i - 6] + a[i + 7] + a[i + 8]
    a[i + 9] = a[i - 7] + a[i - 8] + a[i + 10] + a[i + 11]
}
`
	rec := obs.New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := 0
	eng := engine.New(engine.Config{
		Passes:   append(iv.Passes(iv.Options{}), Pass(Options{})),
		Obs:      rec,
		Limits:   guard.Limits{Inject: func(string) { fired++ }, Pool: guard.NewPool(1 << 40)},
		Jobs:     1,
		Parallel: 2,
	})
	item := eng.AnalyzeAllContext(ctx, []string{src})[0]
	if item.Err != nil {
		t.Fatal(item.Err)
	}
	if fired == 0 || rec.Counter("depend.pairs.tested") == 0 || rec.Counter("engine.par.depend.runs") == 0 {
		t.Fatalf("the run's hook fired %d times; its recorder counted %d tested pairs and %d fanned-out sweeps",
			fired, rec.Counter("depend.pairs.tested"), rec.Counter("engine.par.depend.runs"))
	}
	if held := heldRun(reflect.ValueOf(ResultOf(item.State)), "Result", map[visit]bool{}); len(held) != 0 {
		t.Errorf("the result holds its run at %s", strings.Join(held, ", "))
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
