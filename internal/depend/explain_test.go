package depend

import (
	"strings"
	"testing"
)

// TestExplainAllRendersEachChainOnce: over every harvested program,
// ExplainAll equals Explain of every dependence joined by blank lines,
// and it renders one subscript chain per in-loop access the
// dependences touch, however many edges share that access.
func TestExplainAllRendersEachChainOnce(t *testing.T) {
	var sides, renders int
	for _, src := range harvestSources(t) {
		r := analyze(t, src)
		var parts []string
		accesses := map[*Access]bool{}
		for _, d := range r.Deps {
			parts = append(parts, r.Explain(d))
			for _, ac := range []*Access{d.Src, d.Dst} {
				if ac.Loop != nil {
					accesses[ac] = true
					sides++
				}
			}
		}
		got, n := r.explainAll()
		if want := strings.Join(parts, "\n"); got != want {
			t.Fatalf("ExplainAll differs from joined Explain\n--- got ---\n%s--- want ---\n%s\nprogram:\n%s", got, want, src)
		}
		if got != r.ExplainAll() {
			t.Fatal("ExplainAll differs from explainAll")
		}
		if n != len(accesses) {
			t.Fatalf("%d chain renders for %d accesses\nprogram:\n%s", n, len(accesses), src)
		}
		renders += n
	}
	if renders == sides {
		t.Fatal("no dependence shared an access: the memo was never exercised")
	}
	t.Logf("%d chain renders for %d in-loop dependence sides", renders, sides)
}
