package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// faultSweepSpec is EXPERIMENTS.md's fault sweep at n = 16: one item
// per (crash count, metric), the crashes at steps n², 2n², … while the
// line population is still coalescing, and a 32·n⁴ step budget as the
// measurement cut for the rare runs a crash leaves perpetually walking
// (a w-leader trapped in a segment with no q1 endpoint swaps along it
// forever without changing the output graph). The k = 0 items carry no
// plan: they are the fault-free control rows.
const faultSweepSpec = `{
  "items": [
    {"name": "simple-global-line", "sizes": [16], "metric": "largest-component"},
    {"name": "simple-global-line", "sizes": [16], "metric": "largest-component",
     "faults": {"seed": 1, "events": [{"kind": "crash", "step": 256}, {"kind": "crash", "step": 512},
                                      {"kind": "crash", "step": 768}, {"kind": "crash", "step": 1024}]}},
    {"name": "simple-global-line", "sizes": [16], "metric": "components"},
    {"name": "simple-global-line", "sizes": [16], "metric": "components",
     "faults": {"seed": 1, "events": [{"kind": "crash", "step": 256}, {"kind": "crash", "step": 512},
                                      {"kind": "crash", "step": 768}, {"kind": "crash", "step": 1024}]}}
  ],
  "trials": 6, "seed": 1,
  "detector": "quiescence",
  "include_unconverged": true,
  "max_steps": 2097152
}`

// TestCrashSweepPartitionsLine checks the qualitative fault-tolerance prediction end
// to end, from the same kind of spec cmd/campaign runs: with no crashes
// Simple-Global-Line builds one spanning line; with crashes it
// partitions into smaller lines — the largest surviving component
// shrinks (at most n−k nodes remain in Qout) and the component count
// grows.
func TestCrashSweepPartitionsLine(t *testing.T) {
	t.Parallel()
	const n = 16
	spec, err := campaign.ParseSpec(strings.NewReader(faultSweepSpec))
	if err != nil {
		t.Fatal(err)
	}
	points, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	out, err := campaign.Execute(context.Background(), points, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Aggregates) != 4 {
		t.Fatalf("aggregates %+v", out.Aggregates)
	}
	for _, a := range out.Aggregates {
		if a.Converged+a.Failures != a.Trials || a.Trials != 6 {
			t.Fatalf("aggregate lost runs: %+v", a)
		}
	}
	largest, comps := out.Aggregates[0:2], out.Aggregates[2:4]
	// Fault-free runs quiesce as one spanning line over all n nodes.
	if largest[0].Converged != largest[0].Trials || largest[0].Mean != n || comps[0].Mean != 1 {
		t.Fatalf("fault-free rows %+v and %+v, want a spanning line on every trial", largest[0], comps[0])
	}
	// Four dead nodes leave at most 12 output nodes, necessarily in a
	// strictly smaller largest component; singleton survivors make the
	// component count grow past 1.
	if largest[1].Mean > n-4 {
		t.Fatalf("faulty row %+v: largest component exceeds the survivor count", largest[1])
	}
	if largest[1].Mean >= largest[0].Mean || comps[1].Mean <= comps[0].Mean {
		t.Fatalf("no partition visible: largest %v vs %v, components %v vs %v",
			largest[1].Mean, largest[0].Mean, comps[1].Mean, comps[0].Mean)
	}
}
