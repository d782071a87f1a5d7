package campaign

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// registrySpec names every registry entry measured by the paper's
// tables and sweeps — the twelve constructors, the seven Table 1
// processes and Graph-Replication — at two small sizes, in the JSON
// form checkpoints written by earlier builds used.
const registrySpec = `{
  "items": [
    {"name": "simple-global-line", "sizes": [8, 12]},
    {"name": "fast-global-line", "sizes": [8, 12]},
    {"name": "faster-global-line", "sizes": [8, 12]},
    {"name": "spanning-net", "sizes": [8, 12]},
    {"name": "cycle-cover", "sizes": [8, 12]},
    {"name": "global-star", "sizes": [8, 12]},
    {"name": "global-ring", "sizes": [8, 12]},
    {"name": "2rc", "sizes": [8, 12]},
    {"name": "3rc", "sizes": [8, 12]},
    {"name": "4rc", "sizes": [8, 12]},
    {"name": "3-cliques", "sizes": [8, 12]},
    {"name": "4-cliques", "sizes": [8, 12]},
    {"name": "One-Way-Epidemic", "kind": "process", "sizes": [8, 12]},
    {"name": "One-To-One-Elimination", "kind": "process", "sizes": [8, 12]},
    {"name": "Maximum-Matching", "kind": "process", "sizes": [8, 12]},
    {"name": "One-To-All-Elimination", "kind": "process", "sizes": [8, 12]},
    {"name": "Meet-Everybody", "kind": "process", "sizes": [8, 12]},
    {"name": "Node-Cover", "kind": "process", "sizes": [8, 12]},
    {"name": "Edge-Cover", "kind": "process", "sizes": [8, 12]},
    {"kind": "replication", "sizes": [8, 12]}
  ],
  "trials": 4,
  "seed": 3
}`

// TestCompiledRegistryGolden pins what the registry spec compiles to:
// its SpecHash and, per point, the label, metric name, whether a
// start configuration is built and the analytic reference. A change to
// how items resolve that moves any of these would orphan checkpoints
// written before it (resume refuses a file whose hash differs).
func TestCompiledRegistryGolden(t *testing.T) {
	t.Parallel()
	spec, err := ParseSpec(strings.NewReader(registrySpec))
	if err != nil {
		t.Fatal(err)
	}
	points, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, pt := range points {
		fmt.Fprintf(&got, "%s n=%d metric=%s init=%t expected=%g\n",
			pt.Protocol, pt.N, pt.MetricName, pt.Initial != nil, pt.Expected)
	}
	if got.String() != compiledRegistryGolden {
		t.Errorf("compiled points:\n%s\nwant:\n%s", got.String(), compiledRegistryGolden)
	}
	const wantHash = "176e4a882b7a578f5779dd12976d8b68eea0de4f75de22c0b804d9b470a80677"
	if h := SpecHash(points, 0); h != wantHash {
		t.Errorf("SpecHash = %s, want %s", h, wantHash)
	}
}

// TestDegreeDoublingStart: the registered degree-doubling entry runs
// from its own start configuration (a leader in q0), so every trial of
// a compiled spec converges.
func TestDegreeDoublingStart(t *testing.T) {
	t.Parallel()
	points, err := Spec{Trials: 4, Seed: 1, Items: []Item{{Name: "degree-doubling", Sizes: []int{16}}}}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Execute(context.Background(), points, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if agg := out.Aggregates[0]; agg.Converged != agg.Trials {
		t.Fatalf("degree-doubling n=16: %d of %d trials converged", agg.Converged, agg.Trials)
	}
}

// TestDegreeDoublingRefusesSmallN: with d = 3 the target needs 2³
// neighbors, so n = 8 cannot converge and the spec is refused with an
// error naming the item.
func TestDegreeDoublingRefusesSmallN(t *testing.T) {
	t.Parallel()
	_, err := Spec{Trials: 1, Items: []Item{{Name: "degree-doubling", Sizes: []int{8}}}}.Compile()
	if err == nil || !strings.Contains(err.Error(), `item 0 ("degree-doubling")`) {
		t.Fatalf("err = %v, want a compile error naming the item", err)
	}
}

// FuzzCompileSpec fuzzes the spec boundary, outside input from files
// and CLIs: parsing and compiling arbitrary bytes returns an error or
// points, never panics. Sizes above 2¹² are skipped because Compile
// builds each entry's start configuration.
func FuzzCompileSpec(f *testing.F) {
	for _, seed := range []string{
		// The EXPERIMENTS.md example.
		`{
  "items": [
    {"name": "cycle-cover", "sizes": [32, 64, 128]},
    {"name": "fast-global-line", "sizes": [16, 32], "trials": 40},
    {"name": "One-Way-Epidemic", "sizes": [64, 128]},
    {"name": "Graph-Replication", "sizes": [8, 12, 16]}
  ],
  "trials": 20,
  "seed": 1,
  "schedulers": ["uniform", "round-robin"],
  "metric": "convergence-time",
  "engine": "auto",
  "max_steps": 0
}`,
		`{"items": [{"name": "global-star", "kind": "protocol", "sizes": [8]}], "trials": 1}`,
		`{"items": [{"name": "Edge-Cover", "kind": "process", "sizes": [4]}], "trials": 1}`,
		`{"items": [{"kind": "replication", "sizes": [1, 2]}], "trials": 1}`,
		`{"items": [{"name": "cycle-cover", "kind": "wat", "sizes": [8]}], "trials": 1}`,
		`{"items": [{"name": "degree-doubling", "sizes": [8]}], "trials": 1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		for _, item := range spec.Items {
			for _, n := range item.Sizes {
				if n > 1<<12 {
					return
				}
			}
		}
		points, err := spec.Compile()
		if err != nil {
			return
		}
		for _, pt := range points {
			if pt.Proto == nil || pt.Metric == nil || pt.N < 1 || pt.Trials < 1 {
				t.Fatalf("compiled an incomplete point: %+v", pt)
			}
		}
	})
}

const compiledRegistryGolden = `simple-global-line n=8 metric=convergence-time init=false expected=0
simple-global-line n=12 metric=convergence-time init=false expected=0
fast-global-line n=8 metric=convergence-time init=false expected=0
fast-global-line n=12 metric=convergence-time init=false expected=0
faster-global-line n=8 metric=convergence-time init=false expected=0
faster-global-line n=12 metric=convergence-time init=false expected=0
spanning-net n=8 metric=convergence-time init=false expected=0
spanning-net n=12 metric=convergence-time init=false expected=0
cycle-cover n=8 metric=convergence-time init=false expected=0
cycle-cover n=12 metric=convergence-time init=false expected=0
global-star n=8 metric=convergence-time init=false expected=0
global-star n=12 metric=convergence-time init=false expected=0
global-ring n=8 metric=convergence-time init=false expected=0
global-ring n=12 metric=convergence-time init=false expected=0
2rc n=8 metric=convergence-time init=false expected=0
2rc n=12 metric=convergence-time init=false expected=0
3rc n=8 metric=convergence-time init=false expected=0
3rc n=12 metric=convergence-time init=false expected=0
4rc n=8 metric=convergence-time init=false expected=0
4rc n=12 metric=convergence-time init=false expected=0
3-cliques n=8 metric=convergence-time init=false expected=0
3-cliques n=12 metric=convergence-time init=false expected=0
4-cliques n=8 metric=convergence-time init=false expected=0
4-cliques n=12 metric=convergence-time init=false expected=0
One-Way-Epidemic n=8 metric=steps init=true expected=18.150000000000002
One-Way-Epidemic n=12 metric=steps init=true expected=33.218650793650795
One-To-One-Elimination n=8 metric=steps init=false expected=49.00000000000001
One-To-One-Elimination n=12 metric=steps init=false expected=121
Maximum-Matching n=8 metric=steps init=false expected=35.53333333333333
Maximum-Matching n=12 metric=steps init=false expected=86.22380952380952
One-To-All-Elimination n=8 metric=steps init=false expected=13.13916601916602
One-To-All-Elimination n=12 metric=steps init=false expected=22.18205865342088
Meet-Everybody n=8 metric=steps init=true expected=72.60000000000001
Meet-Everybody n=12 metric=steps init=true expected=199.31190476190474
Node-Cover n=8 metric=steps init=false expected=10.39547267547268
Node-Cover n=12 metric=steps init=false expected=18.059257873189765
Edge-Cover n=8 metric=steps init=false expected=109.96078909105832
Edge-Cover n=12 metric=steps init=false expected=315.11218425996526
Graph-Replication n=8 metric=convergence-time init=true expected=0
Graph-Replication n=12 metric=convergence-time init=true expected=0
`
