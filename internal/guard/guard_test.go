package guard

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestNormalizeFillsDefaults(t *testing.T) {
	n := Limits{}.Normalize()
	d := Default()
	if n.MaxSourceBytes != d.MaxSourceBytes || n.MaxNestDepth != d.MaxNestDepth ||
		n.MaxSSAValues != d.MaxSSAValues || n.MaxLoopDepth != d.MaxLoopDepth ||
		n.MaxPhaseSteps != d.MaxPhaseSteps {
		t.Fatalf("zero Limits must normalize to Default(), got %+v", n)
	}
	n = Limits{MaxNestDepth: 7, MaxPhaseSteps: Unlimited}.Normalize()
	if n.MaxNestDepth != 7 {
		t.Fatalf("explicit field must survive, got %d", n.MaxNestDepth)
	}
	if n.MaxPhaseSteps != 0 {
		t.Fatalf("Unlimited must normalize to 0 (unchecked), got %d", n.MaxPhaseSteps)
	}
	if n.MaxSourceBytes != Default().MaxSourceBytes {
		t.Fatalf("unset field must default, got %d", n.MaxSourceBytes)
	}
}

func TestBudgetPanicsWithLimitError(t *testing.T) {
	b := Limits{MaxPhaseSteps: 3}.Budget("sccp")
	b.Step()
	b.Step()
	b.Step()
	defer func() {
		p := recover()
		le, ok := p.(*LimitError)
		if !ok {
			t.Fatalf("want *LimitError panic, got %v", p)
		}
		if le.Phase != "sccp" || le.Resource != "phase steps" || le.Limit != 3 {
			t.Fatalf("wrong LimitError: %+v", le)
		}
	}()
	b.Step()
	t.Fatal("fourth Step must panic")
}

func TestBudgetUnlimited(t *testing.T) {
	var nilB *Budget
	nilB.Step() // must not panic
	b := Limits{}.Budget("x")
	for i := 0; i < 1000; i++ {
		b.Step()
	}
	b.Steps(1 << 40)
}

func TestCheck(t *testing.T) {
	Check("parse", "source bytes", 10, 0)  // unchecked
	Check("parse", "source bytes", 10, 10) // at the ceiling is fine
	defer func() {
		if _, ok := recover().(*LimitError); !ok {
			t.Fatal("Check above the ceiling must panic with *LimitError")
		}
	}()
	Check("parse", "source bytes", 11, 10)
}

func TestLimitErrorMessage(t *testing.T) {
	err := error(&LimitError{Phase: "iv", Resource: "loop depth", Limit: 64})
	if !strings.Contains(err.Error(), "iv") || !strings.Contains(err.Error(), "loop depth") {
		t.Fatalf("uninformative message: %q", err)
	}
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatal("errors.As must find *LimitError")
	}
}

func TestInjectHelpers(t *testing.T) {
	var nilHook Inject
	nilHook.Fire("anything") // no-op

	hook := PanicIn("ssa")
	hook.Fire("parse") // wrong phase: no-op
	func() {
		defer func() {
			f, ok := recover().(*Fault)
			if !ok || f.Phase != "ssa" {
				t.Fatalf("PanicIn must panic with *Fault{ssa}, got %v", f)
			}
		}()
		hook.Fire("ssa")
	}()

	limit := LimitIn("depend")
	limit.Fire("iv")
	func() {
		defer func() {
			le, ok := recover().(*LimitError)
			if !ok || le.Phase != "depend" {
				t.Fatalf("LimitIn must panic with *LimitError{depend}, got %v", le)
			}
		}()
		limit.Fire("depend")
	}()
}

// TestPoolSharedBudget: a pool counts down across budgets built from
// the same Limits and fails closed with a "shared step pool" limit.
func TestPoolSharedBudget(t *testing.T) {
	lim := Limits{MaxPhaseSteps: 100, Pool: NewPool(5)}
	b1 := lim.Budget("sccp")
	b2 := lim.Budget("iv")
	b1.Steps(3)
	b2.Steps(2) // pool exactly drained; per-phase budgets far from done
	defer func() {
		le, ok := recover().(*LimitError)
		if !ok || le.Resource != "shared step pool" || le.Phase != "iv" || le.Limit != 5 {
			t.Fatalf("recover() = %v, want shared step pool limit in iv", le)
		}
	}()
	b2.Step()
	t.Fatal("exhausted pool did not panic")
}

// TestPoolNilAndZero: no pool means no shared ceiling, and NewPool of
// a non-positive total returns nil.
func TestPoolNilAndZero(t *testing.T) {
	if NewPool(0) != nil || NewPool(-7) != nil {
		t.Error("NewPool(<=0) must return nil")
	}
	var p *Pool
	p.Take("iv", 1<<40) // nil pool: unlimited, no panic
	b := Limits{MaxPhaseSteps: 10}.Budget("iv")
	b.Steps(9) // only the per-phase ceiling applies
}

// TestBudgetCeiling: the ceiling is the lesser of the budget's
// per-phase limit and its pool's total — the same whether the phase
// counts down alone or shares a pool across workers — and 0 when
// nothing bounds the budget.
func TestBudgetCeiling(t *testing.T) {
	pool := NewPool(300)
	cases := []struct {
		name string
		lim  Limits
		want int64
	}{
		{"unchecked", Limits{}, 0},
		{"per-phase", Limits{MaxPhaseSteps: 500}, 500},
		{"pool below phase", Limits{MaxPhaseSteps: 500, Pool: pool}, 300},
		{"shared phase", Limits{MaxPhaseSteps: 500}.ShareSteps(), 500},
		{"pool only", Limits{Pool: pool}, 300},
	}
	for _, c := range cases {
		if got := c.lim.Budget("depend").Ceiling(); got != c.want {
			t.Errorf("%s: Ceiling() = %d, want %d", c.name, got, c.want)
		}
	}
	var nilBudget *Budget
	if nilBudget.Ceiling() != 0 {
		t.Error("nil budget must have no ceiling")
	}
}

// TestPoolConcurrentTake: concurrent draws never let total consumption
// exceed the pool (run with -race).
func TestPoolConcurrentTake(t *testing.T) {
	const total, workers = 1000, 8
	p := NewPool(total)
	overdrawn := make(chan int, workers)
	for g := 0; g < workers; g++ {
		go func() {
			n := 0
			defer func() {
				if recover() != nil {
					overdrawn <- n
				} else {
					overdrawn <- -1 // never hit the ceiling
				}
			}()
			for {
				p.Take("iv", 1)
				n++
			}
		}()
	}
	granted := 0
	for g := 0; g < workers; g++ {
		if n := <-overdrawn; n >= 0 {
			granted += n
		} else {
			t.Fatal("a worker drew forever from a finite pool")
		}
	}
	if granted > total {
		t.Errorf("pool granted %d steps, ceiling %d", granted, total)
	}
}

func TestBudgetCancellationPoll(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := Limits{MaxPhaseSteps: Unlimited, Ctx: ctx}.Normalize().Budget("sccp")
	// Live context: arbitrarily many steps pass.
	b.Steps(10 * cancelPollEvery)
	cancel()
	// A cancelled context must surface within one poll interval.
	defer func() {
		ce, ok := recover().(*CancelError)
		if !ok {
			t.Fatalf("want *CancelError panic")
		}
		if ce.Phase != "sccp" {
			t.Fatalf("phase attribution lost: %q", ce.Phase)
		}
		if !errors.Is(ce, context.Canceled) {
			t.Fatalf("cause must unwrap to context.Canceled, got %v", ce.Cause)
		}
	}()
	for i := 0; i <= cancelPollEvery; i++ {
		b.Step()
	}
	t.Fatalf("cancelled budget must panic within cancelPollEvery steps")
}

func TestBudgetWithoutContextIsUnchecked(t *testing.T) {
	b := Limits{MaxPhaseSteps: Unlimited}.Normalize().Budget("iv")
	b.Steps(100 * cancelPollEvery) // must not panic
	// A Background context has no done channel; the poll must stay off.
	b = Limits{MaxPhaseSteps: Unlimited, Ctx: context.Background()}.Normalize().Budget("iv")
	if b.done != nil {
		t.Fatalf("Background context must not arm the cancellation poll")
	}
}

func TestLimitsCancelled(t *testing.T) {
	if ce := (Limits{}).Cancelled("parse"); ce != nil {
		t.Fatalf("nil ctx must report not cancelled, got %v", ce)
	}
	ctx, cancel := context.WithCancel(context.Background())
	l := Limits{Ctx: ctx}
	if ce := l.Cancelled("parse"); ce != nil {
		t.Fatalf("live ctx must report not cancelled, got %v", ce)
	}
	cancel()
	ce := l.Cancelled("parse")
	if ce == nil || ce.Phase != "parse" || !errors.Is(ce, context.Canceled) {
		t.Fatalf("cancelled ctx must yield an attributed *CancelError, got %v", ce)
	}
	if !strings.Contains(ce.Error(), "cancelled") {
		t.Fatalf("error text: %q", ce.Error())
	}
}

func TestBudgetDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	b := Limits{MaxPhaseSteps: Unlimited, Ctx: ctx}.Normalize().Budget("depend")
	defer func() {
		ce, ok := recover().(*CancelError)
		if !ok || !errors.Is(ce, context.DeadlineExceeded) {
			t.Fatalf("want deadline-exceeded *CancelError, got %v", ce)
		}
	}()
	b.Steps(cancelPollEvery)
	t.Fatalf("expired deadline must panic at the first poll")
}
