package universal

import (
	"slices"
	"testing"

	"repro/internal/tm"
)

// TestSection6DrawsPinned pins every count the four Section 6
// pipelines report at seeds 1–3: the real partition and line runs,
// each charged phase, the draw count, the useful nodes and the
// output's edge count. A change to a pipeline's skeleton that keeps
// its RNG streams and phase order leaves every literal in place.
func TestSection6DrawsPinned(t *testing.T) {
	t.Parallel()
	half := func(s uint64) (Result, error) { return LinearWasteHalf(tm.Connected(), 16, s) }
	third := func(s uint64) (Result, error) { return LinearWasteThird(tm.EvenEdges(), 18, s) }
	logw := func(s uint64) (Result, error) { return LogWaste(tm.HasEdge(), 24, s) }
	// Below 16 nodes only the log-waste pipeline's line is Fast-Global-
	// Line; these rows pin that choice.
	logSmall := func(s uint64) (Result, error) { return LogWaste(tm.HasEdge(), 12, s) }
	det := func(s uint64) (Result, error) { return DeterministicConstruct(RingBuilder(), 16, s) }
	type ph = PhaseStat
	for _, tc := range []struct {
		name     string
		run      func(seed uint64) (Result, error)
		seed     uint64
		steps    int64
		phases   []PhaseStat
		attempts int
		useful   []int
		edges    int
	}{
		{"half/connected/16", half, 1, 137719,
			[]ph{{"partition-UD", 94}, {"spanning-line", 806}, {"draw-and-decide", 136045}, {"release", 774}},
			1, []int{1, 3, 6, 7, 10, 13, 14, 15}, 10},
		{"half/connected/16", half, 2, 141982,
			[]ph{{"partition-UD", 129}, {"spanning-line", 294}, {"draw-and-decide", 140700}, {"release", 859}},
			1, []int{0, 2, 5, 9, 10, 11, 12, 15}, 17},
		{"half/connected/16", half, 3, 140627,
			[]ph{{"partition-UD", 96}, {"spanning-line", 456}, {"draw-and-decide", 139356}, {"release", 719}},
			1, []int{0, 2, 4, 7, 8, 9, 12, 15}, 13},
		{"third/even-edges/18", third, 1, 138852,
			[]ph{{"partition-UDM", 124}, {"spanning-line", 160}, {"draw-and-decide", 137760}, {"release", 808}},
			2, []int{6, 7, 8, 11, 14, 16}, 8},
		{"third/even-edges/18", third, 2, 74297,
			[]ph{{"partition-UDM", 259}, {"spanning-line", 481}, {"draw-and-decide", 72518}, {"release", 1039}},
			1, []int{1, 3, 6, 10, 11, 16}, 10},
		{"third/even-edges/18", third, 3, 74276,
			[]ph{{"partition-UDM", 41}, {"spanning-line", 430}, {"draw-and-decide", 72699}, {"release", 1106}},
			1, []int{0, 3, 6, 9, 16, 17}, 8},
		{"log/has-edge/24", logw, 1, 3927687,
			[]ph{{"spanning-line", 13912}, {"count-and-release", 11882}, {"draw-and-decide", 3895681}, {"release", 6212}},
			1, []int{1, 17, 18, 7, 14, 12, 5, 0, 11, 21, 19, 20, 13, 6, 10, 9, 16, 22, 15}, 78},
		{"log/has-edge/24", logw, 2, 3976206,
			[]ph{{"spanning-line", 14429}, {"count-and-release", 12754}, {"draw-and-decide", 3941692}, {"release", 7331}},
			1, []int{5, 21, 12, 16, 19, 1, 7, 3, 17, 22, 13, 8, 4, 0, 2, 18, 20, 11, 23}, 80},
		{"log/has-edge/24", logw, 3, 4036129,
			[]ph{{"spanning-line", 18225}, {"count-and-release", 11403}, {"draw-and-decide", 4001306}, {"release", 5195}},
			1, []int{5, 23, 17, 19, 22, 2, 14, 12, 7, 16, 21, 10, 4, 13, 0, 9, 6, 18, 20}, 88},
		{"log/has-edge/12", logSmall, 1, 76515,
			[]ph{{"spanning-line", 1583}, {"count-and-release", 1349}, {"draw-and-decide", 72942}, {"release", 641}},
			1, []int{4, 1, 7, 10, 11, 3, 0, 5}, 10},
		{"log/has-edge/12", logSmall, 2, 74548,
			[]ph{{"spanning-line", 903}, {"count-and-release", 1510}, {"draw-and-decide", 71669}, {"release", 466}},
			1, []int{6, 5, 2, 4, 0, 1, 10, 11}, 16},
		{"log/has-edge/12", logSmall, 3, 76998,
			[]ph{{"spanning-line", 1160}, {"count-and-release", 1266}, {"draw-and-decide", 74135}, {"release", 437}},
			1, []int{5, 1, 9, 4, 8, 2, 10, 6}, 12},
		{"deterministic/ring/16", det, 1, 60049,
			[]ph{{"partition-UD", 94}, {"spanning-line", 806}, {"write-target", 58516}, {"release", 633}},
			1, []int{1, 3, 6, 7, 10, 13, 14, 15}, 8},
		{"deterministic/ring/16", det, 2, 61484,
			[]ph{{"partition-UD", 129}, {"spanning-line", 294}, {"write-target", 60362}, {"release", 699}},
			1, []int{0, 2, 5, 9, 10, 11, 12, 15}, 8},
		{"deterministic/ring/16", det, 3, 69853,
			[]ph{{"partition-UD", 96}, {"spanning-line", 456}, {"write-target", 67929}, {"release", 1372}},
			1, []int{0, 2, 4, 7, 8, 9, 12, 15}, 8},
	} {
		res, err := tc.run(tc.seed)
		if err != nil {
			t.Fatalf("%s seed %d: %v", tc.name, tc.seed, err)
		}
		if res.Steps != tc.steps {
			t.Errorf("%s seed %d: Steps = %d, want %d", tc.name, tc.seed, res.Steps, tc.steps)
		}
		if !slices.Equal(res.PhaseSteps, tc.phases) {
			t.Errorf("%s seed %d: PhaseSteps = %v, want %v", tc.name, tc.seed, res.PhaseSteps, tc.phases)
		}
		if res.Attempts != tc.attempts {
			t.Errorf("%s seed %d: Attempts = %d, want %d", tc.name, tc.seed, res.Attempts, tc.attempts)
		}
		if !slices.Equal(res.UsefulNodes, tc.useful) {
			t.Errorf("%s seed %d: UsefulNodes = %v, want %v", tc.name, tc.seed, res.UsefulNodes, tc.useful)
		}
		if got := res.Output.M(); got != tc.edges {
			t.Errorf("%s seed %d: output edges = %d, want %d", tc.name, tc.seed, got, tc.edges)
		}
	}
}
