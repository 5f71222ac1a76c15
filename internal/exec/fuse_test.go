package exec

import (
	"math/rand"
	"testing"

	"mpf/internal/relation"
)

// TestFusedJoinGroupByMatchesUnfused compares the fused pipeline against
// the materializing operators on random inputs and group-variable
// choices.
func TestFusedJoinGroupByMatchesUnfused(t *testing.T) {
	for seed := int64(71); seed < 76; seed++ {
		a, b, _ := randomRelations(seed)
		h := newHarness(t, 32, a, b)
		pb := h.builder()
		sa, _ := pb.Scan("a")
		sb, _ := pb.Scan("b")
		for _, groupVars := range [][]string{{"X"}, {"Z"}, {"X", "Z"}, {"Y"}, nil} {
			g, err := pb.GroupBy(pb.Join(sa, sb), groupVars)
			if err != nil {
				t.Fatal(err)
			}
			h.engine.FuseJoinGroupBy = false
			plain, plainStats := h.run(t, g)
			h.engine.FuseJoinGroupBy = true
			fused, fusedStats := h.run(t, g)
			if !relation.Equal(plain, fused, 0, 1e-9) {
				t.Fatalf("seed %d group %v: fused result differs", seed, groupVars)
			}
			if fusedStats.TempTuples >= plainStats.TempTuples && plain.Len() > 0 && groupVars != nil {
				t.Fatalf("seed %d group %v: fusion did not reduce materialized tuples (%d vs %d)",
					seed, groupVars, fusedStats.TempTuples, plainStats.TempTuples)
			}
		}
	}
}

// TestFusedNestedPlanMatches runs a deeper plan where only the top
// GroupBy/Join pair fuses.
func TestFusedNestedPlanMatches(t *testing.T) {
	a, b, c := randomRelations(81)
	h := newHarness(t, 32, a, b, c)
	pb := h.builder()
	sa, _ := pb.Scan("a")
	sb, _ := pb.Scan("b")
	sc, _ := pb.Scan("c")
	inner, _ := pb.GroupBy(pb.Join(sa, sb), []string{"Z", "X"})
	g, _ := pb.GroupBy(pb.Join(inner, sc), []string{"W"})
	h.engine.FuseJoinGroupBy = false
	plain, _ := h.run(t, g)
	h.engine.FuseJoinGroupBy = true
	fused, _ := h.run(t, g)
	if !relation.Equal(plain, fused, 0, 1e-9) {
		t.Fatal("fused nested plan differs")
	}
}

// TestFusionWithGraceFallback: oversized builds take the materializing
// Grace path even under the fusion flag.
func TestFusionWithGraceFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	a, _ := relation.Random(rng, "a",
		[]relation.Attr{{Name: "x", Domain: 30}, {Name: "y", Domain: 10}}, 0.9,
		relation.UniformMeasure(0.1, 2))
	b, _ := relation.Random(rng, "b",
		[]relation.Attr{{Name: "y", Domain: 10}, {Name: "z", Domain: 30}}, 0.9,
		relation.UniformMeasure(0.1, 2))
	h := newHarness(t, 64, a, b)
	pb := h.builder()
	sa, _ := pb.Scan("a")
	sb, _ := pb.Scan("b")
	g, _ := pb.GroupBy(pb.Join(sa, sb), []string{"x"})
	h.engine.FuseJoinGroupBy = false
	plain, _ := h.run(t, g)
	h.engine.FuseJoinGroupBy = true
	h.engine.HashJoinMaxBuild = 8
	fused, _ := h.run(t, g)
	if !relation.Equal(plain, fused, 0, 1e-9) {
		t.Fatal("grace fallback under fusion differs")
	}
}
