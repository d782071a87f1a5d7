package experiments

import (
	"testing"

	"repro/internal/core"
)

func TestMeasureProcessTracksTheory(t *testing.T) {
	t.Parallel()
	series, err := Measure("One-Way-Epidemic", []int{16, 32, 64}, 40, 1, core.EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Points) != 3 {
		t.Fatalf("series %+v", series)
	}
	spread, err := series.RatioSpread()
	if err != nil {
		t.Fatal(err)
	}
	if spread > 1.5 {
		t.Fatalf("epidemic ratio spread %f too wide", spread)
	}
	alpha, err := series.FitExponent()
	if err != nil {
		t.Fatal(err)
	}
	// n log n fits a power law with exponent slightly above 1.
	if alpha < 0.9 || alpha > 1.6 {
		t.Fatalf("epidemic exponent %f outside the n log n band", alpha)
	}
}

func TestMeasureProtocolExponent(t *testing.T) {
	t.Parallel()
	series, err := Measure("cycle-cover", []int{16, 32, 64}, 20, 1, core.EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := series.FitExponent()
	if err != nil {
		t.Fatal(err)
	}
	// Θ(n²): allow a generous band for the small sweep.
	if alpha < 1.5 || alpha > 2.5 {
		t.Fatalf("cycle-cover exponent %f outside the n² band", alpha)
	}
}

func TestMeasureReplication(t *testing.T) {
	t.Parallel()
	series, err := Measure("Graph-Replication", []int{8, 12}, 3, 1, core.EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Points) != 2 {
		t.Fatalf("points %v", series.Points)
	}
	if series.Points[1].Mean <= series.Points[0].Mean {
		t.Fatalf("replication time not growing: %v", series.Points)
	}
}

func TestCompareLineProtocols(t *testing.T) {
	t.Parallel()
	cmp, err := CompareLineProtocols([]int{16, 32}, 6, 1, core.EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cmp.Sizes {
		if cmp.Faster[i] >= cmp.Fast[i] {
			t.Fatalf("n=%d: Faster (%f) not faster than Fast (%f)",
				cmp.Sizes[i], cmp.Faster[i], cmp.Fast[i])
		}
	}
}

func TestRatioSpreadRequiresReference(t *testing.T) {
	t.Parallel()
	series, err := Measure("global-star", []int{8, 16}, 2, 1, core.EngineBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := series.RatioSpread(); err == nil {
		t.Fatal("spread without a reference curve accepted")
	}
}

func TestTableSizes(t *testing.T) {
	t.Parallel()
	if len(Table1Sizes()) < 4 {
		t.Fatal("Table 1 sweep too small")
	}
	for _, name := range []string{"simple-global-line", "fast-global-line", "global-ring", "Graph-Replication", "cycle-cover"} {
		sizes := Table2Sizes(name)
		if len(sizes) < 2 {
			t.Fatalf("%s sweep too small: %v", name, sizes)
		}
		for i := 1; i < len(sizes); i++ {
			if sizes[i] <= sizes[i-1] {
				t.Fatalf("%s sweep not increasing: %v", name, sizes)
			}
		}
	}
}
