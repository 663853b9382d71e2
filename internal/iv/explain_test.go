package iv

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"beyondiv/internal/ir"
	"beyondiv/internal/loops"
	"beyondiv/internal/paper"
	"beyondiv/internal/progen"
)

// The per-key explanation path as it was before the one-pass renderer,
// kept as the reference ExplainAll must match byte for byte: every call
// scans every classified value, and every SCR line scans its loop.

func explainKeysRef(a *Analysis) []string {
	var keys []string
	seen := map[string]bool{}
	add := func(k string) {
		if k != "" && !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for _, l := range a.Forest.InnerToOuter() {
		m := a.byLoop[l]
		vals := make([]*ir.Value, 0, len(m))
		for v := range m {
			if v.Name != "" {
				vals = append(vals, v)
			}
		}
		slices.SortFunc(vals, ir.ByID)
		for _, v := range vals {
			add(v.Name)
			add(strings.TrimRight(v.Name, "0123456789"))
			if a.SSA != nil {
				add(a.SSA.VarOf(v))
			}
		}
	}
	return keys
}

func explainVarRef(a *Analysis, name string) string {
	var sb strings.Builder
	for _, l := range a.Forest.InnerToOuter() {
		m := a.byLoop[l]
		vals := make([]*ir.Value, 0, len(m))
		for v := range m {
			if a.varMatches(v, name) {
				vals = append(vals, v)
			}
		}
		slices.SortFunc(vals, ir.ByID)
		for _, v := range vals {
			sb.WriteString(explainRef(a, l, v))
		}
	}
	return sb.String()
}

func explainRef(a *Analysis, l *loops.Loop, v *ir.Value) string {
	var sb strings.Builder
	c := a.ClassOf(l, v)
	label := "?"
	if l != nil {
		label = l.Label
	}
	fmt.Fprintf(&sb, "%s in loop %s: %s\n", v, label, c)
	explainChainRef(a, &sb, c, 1)
	return sb.String()
}

func explainChainRef(a *Analysis, sb *strings.Builder, c *Classification, depth int) {
	if c == nil || depth > 6 {
		return
	}
	pad := strings.Repeat("  ", depth)
	fmt.Fprintf(sb, "%srule: %s\n", pad, ruleOf(c))
	fmt.Fprintf(sb, "%s      %s\n", pad, ruleDetail(c))
	if members := scrMembersRef(a, c); len(members) > 0 {
		names := make([]string, len(members))
		for i, m := range members {
			s := m.String()
			if m.Op == ir.OpPhi {
				s = "φ " + s
			}
			names[i] = s
		}
		fmt.Fprintf(sb, "%s      SCR {%s}\n", pad, strings.Join(names, ", "))
	}
	if c.Kind == WrapAround && c.Inner != nil {
		fmt.Fprintf(sb, "%sfed by carried value: %s\n", pad, c.Inner)
		explainChainRef(a, sb, c.Inner, depth+1)
	}
	if c.Beta != nil {
		fmt.Fprintf(sb, "%sfed by recurrence step β = %s\n", pad, c.Beta)
		explainChainRef(a, sb, c.Beta, depth+1)
	}
}

func scrMembersRef(a *Analysis, c *Classification) []*ir.Value {
	if c.HeadPhi == nil || c.Loop == nil {
		return nil
	}
	m := a.byLoop[c.Loop]
	var out []*ir.Value
	for v, vc := range m {
		if vc != nil && vc.HeadPhi == c.HeadPhi {
			out = append(out, v)
		}
	}
	slices.SortFunc(out, ir.ByID)
	return out
}

// TestExplainAllMatchesPerKey: ExplainAll's keys are ExplainKeys', and
// each text is byte for byte what the per-key reference renders, over
// the paper, progen 0–63, DepWorkload 0–95 and the generated shapes.
// Off the progen programs, where the reference costs most, ExplainVar
// and Explain for every classified value render the same bytes too.
func TestExplainAllMatchesPerKey(t *testing.T) {
	srcs := map[string]string{
		"straight/512": progen.StraightLineLoop(512), "mutual/64": progen.MutualChain(64),
		"mixed/20": progen.MixedClasses(20), "large/12": progen.Large(12), "nested/4": progen.NestedLoops(4),
	}
	for _, p := range paper.Corpus {
		srcs[p.ID] = p.Source
	}
	gen := progen.New()
	for s := int64(0); s < 64; s++ {
		srcs[fmt.Sprint("progen/", s)] = gen.Program(s)
	}
	for s := int64(0); s < 96; s++ {
		srcs[fmt.Sprint("dep/", s)] = progen.DepWorkload(s)
	}
	for name, src := range srcs {
		a, err := AnalyzeProgram(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		keys, texts := a.ExplainAll()
		if want := explainKeysRef(a); !slices.Equal(keys, want) || !slices.Equal(a.ExplainKeys(), want) {
			t.Fatalf("%s: keys %q, ExplainKeys %q, the reference %q", name, keys, a.ExplainKeys(), want)
		}
		for i, k := range keys {
			if want := explainVarRef(a, k); texts[i] != want {
				t.Fatalf("%s: ExplainAll's text for %s differs\n--- got ---\n%s\n--- reference ---\n%s", name, k, texts[i], want)
			}
		}
		if strings.HasPrefix(name, "progen/") {
			continue
		}
		for i, k := range keys {
			if got := a.ExplainVar(k); got != texts[i] {
				t.Fatalf("%s: ExplainVar(%s) differs\n--- got ---\n%s\n--- reference ---\n%s", name, k, got, texts[i])
			}
		}
		if a.ExplainVar("nosuchvariable") != "" {
			t.Errorf("%s: an unknown name has an explanation", name)
		}
		for l, m := range a.byLoop {
			for v := range m {
				if got, want := a.Explain(l, v), explainRef(a, l, v); got != want {
					t.Fatalf("%s: Explain(%s, %s) = %q, the reference %q", name, l.Label, v, got, want)
				}
			}
		}
	}
}

// TestExplainAllWorkLinear pins the one-pass renderer linear by counting
// its work — classified values visited and grouped — on the E16 sweep's
// two largest programs: within a constant per SSA value, and doubling
// the program at most about doubles it. Explaining each key on its own
// visits every value once per key, and an SCR scan per chain is as bad.
func TestExplainAllWorkLinear(t *testing.T) {
	var works []int
	for _, n := range []int{4096, 8192} {
		a, err := AnalyzeProgram(progen.StraightLineLoop(n))
		if err != nil {
			t.Fatal(err)
		}
		values := 0
		for _, b := range a.SSA.Func.Blocks {
			values += len(b.Values)
		}
		keys, _, work := (&explainer{a: a}).all(true)
		if work > 3*values {
			t.Errorf("StraightLineLoop(%d): %d SSA values, %d keys, renderer work %d (bound %d)", n, values, len(keys), work, 3*values)
		}
		t.Logf("StraightLineLoop(%d): %d SSA values, %d keys, renderer work %d", n, values, len(keys), work)
		works = append(works, work)
	}
	if 10*works[1] > 22*works[0] {
		t.Errorf("doubling the program: renderer work %d → %d, want at most ×2.2", works[0], works[1])
	}
}
