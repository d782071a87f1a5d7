package netcons_test

// TestBatchPathFingerprints pins the batch engine's pure path — swap
// runs on: run reveals, the analytic collapse (including the budget
// cut inside a collapsed run), the run kernel and the breaker landing
// — to a committed table of run fingerprints, together with its exact
// route on the bit-row index at 64 nodes and below. The pure path promises
// equality in law, not bit-identity with any other engine, so this
// table is its own reference: a refactor of the batch loop that keeps
// every draw in the same order must reproduce every row exactly. Each
// case runs fresh and through one shared workspace that every case
// reuses in turn.
//
// Regenerate the table only for a deliberate change of the pure
// path's draw stream:
//
//	go test . -run TestBatchPathFingerprints -update-batch
//
// CI greps this test's subtests in the batch contract step; keep the
// naming scheme in sync with .github/workflows/ci.yml.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
)

var updateBatch = flag.Bool("update-batch", false, "rewrite testdata/batch_fingerprints.json from EngineBatch")

const batchFingerprintFile = "testdata/batch_fingerprints.json"

// batchFingerprintRow is one committed row: every deterministic result
// and metric field of one pure-path run, plus its final configuration.
type batchFingerprintRow struct {
	Case              string `json:"case"`
	Converged         bool   `json:"converged"`
	Steps             int64  `json:"steps"`
	ConvergenceTime   int64  `json:"convergence_time"`
	EffectiveSteps    int64  `json:"effective_steps"`
	EdgeChanges       int64  `json:"edge_changes"`
	Landings          int64  `json:"landings"`
	SkippedSteps      int64  `json:"skipped_steps"`
	SkipBatches       int64  `json:"skip_batches"`
	DetectorChecks    int64  `json:"detector_checks"`
	SampleRejections  int64  `json:"sample_rejections"`
	BucketDraws       int64  `json:"bucket_draws"`
	CollapsedLandings int64  `json:"collapsed_landings"`
	FastForwardEpochs int64  `json:"fast_forward_epochs"`
	Final             string `json:"final_sha256"`
}

func batchFingerprintOf(name string, res core.Result) batchFingerprintRow {
	sum := sha256.Sum256([]byte(res.Final.Fingerprint()))
	m := res.Metrics
	return batchFingerprintRow{
		Case: name, Converged: res.Converged, Steps: res.Steps,
		ConvergenceTime: res.ConvergenceTime, EffectiveSteps: res.EffectiveSteps,
		EdgeChanges: res.EdgeChanges, Landings: m.Landings,
		SkippedSteps: m.SkippedSteps, SkipBatches: m.SkipBatches,
		DetectorChecks: m.DetectorChecks, SampleRejections: m.SampleRejections,
		BucketDraws: m.BucketDraws, CollapsedLandings: m.CollapsedLandings,
		FastForwardEpochs: m.FastForwardEpochs,
		Final:             hex.EncodeToString(sum[:]),
	}
}

// batchCase is one row's run recipe.
type batchCase struct {
	name     string
	proto    *core.Protocol
	det      core.Detector
	n        int
	seed     uint64
	maxSteps int64 // 0 is DefaultMaxSteps(n)
	initial  func() (*core.Config, error)
}

// batchCases lists the batch engine's rows: Simple-Global-Line's last
// merge (one walker crossing the merged line, the collapse regime) at
// three budgets, the many-walker run-kernel regime from all-q0, and
// every batchable registry entry at a paper-table population and,
// to a fixed budget, at n = 72. Rows of at most 64 nodes pin the
// bit-row index's exact route, which batch takes there; the larger
// rows pin the pure path.
func batchCases(t *testing.T) []batchCase {
	t.Helper()
	sgl := protocols.SimpleGlobalLine()
	quiet := core.QuiescenceDetector()
	var cases []batchCase
	for _, n := range []int{64, 1024} {
		for seed := uint64(1); seed <= 4; seed++ {
			for _, budget := range []int64{0, 5_000, 200_000} {
				n := n
				cases = append(cases, batchCase{
					name:  fmt.Sprintf("sgl/two-lines/n=%d/seed=%d/budget=%d", n, seed, budget),
					proto: sgl.Proto, det: quiet, n: n, seed: seed, maxSteps: budget,
					initial: func() (*core.Config, error) { return twoLinesInitial(sgl.Proto, n) },
				})
			}
		}
	}
	cases = append(cases, batchCase{
		name: "sgl/all-q0/n=4096/budget=20000000", proto: sgl.Proto, det: sgl.Detector,
		n: 4096, seed: 1, maxSteps: 20_000_000,
	})
	const registryN, censusN, censusBudget = 12, 72, 200_000
	for i, name := range protocols.Names() {
		c, err := protocols.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Proto.Batchable() {
			continue
		}
		for _, bc := range []batchCase{
			{name: fmt.Sprintf("%s/n=%d", name, registryN), n: registryN, seed: uint64(200 + i)},
			{name: fmt.Sprintf("%s/n=%d/budget=%d", name, censusN, censusBudget), n: censusN, seed: uint64(300 + i), maxSteps: censusBudget},
		} {
			bc.proto, bc.det = c.Proto, c.Detector
			if c.Initial != nil {
				build, n := c.Initial, bc.n
				bc.initial = func() (*core.Config, error) { return build(n) }
			}
			cases = append(cases, bc)
		}
	}
	return cases
}

// bitRowCut is the largest population core's bit-row index serves; the
// batch engine steps every landing exactly up to it.
const bitRowCut = 64

// twoLinesInitial is Simple-Global-Line's configuration just before its
// last merge, as perfbench's sgl-merge workload builds it: nodes
// 0…n/2−1 and n/2…n−1 form two lines with q1 at the outer ends and the
// two leaders (l) facing each other across the one missing edge
// {n/2−1, n/2}.
func twoLinesInitial(p *core.Protocol, n int) (*core.Config, error) {
	states := make(map[string]core.State)
	for _, name := range []string{"q1", "q2", "l"} {
		s, ok := p.StateIndex(name)
		if !ok {
			return nil, fmt.Errorf("%s has no state %s", p.Name(), name)
		}
		states[name] = s
	}
	cfg := core.NewConfig(p, n)
	half := n / 2
	for u := 0; u < n; u++ {
		switch u {
		case 0, n - 1:
			cfg.SetNode(u, states["q1"])
		case half - 1, half:
			cfg.SetNode(u, states["l"])
		default:
			cfg.SetNode(u, states["q2"])
		}
		if u+1 < n && u != half-1 {
			cfg.SetEdge(u, u+1, true)
		}
	}
	return cfg, nil
}

func batchRun(t *testing.T, c batchCase, ws *core.Workspace) core.Result {
	t.Helper()
	opts := core.Options{Seed: c.seed, Engine: core.EngineBatch, Detector: c.det, MaxSteps: c.maxSteps, Workspace: ws}
	if c.initial != nil {
		initial, err := c.initial()
		if err != nil {
			t.Fatal(err)
		}
		opts.Initial = initial
	}
	res, err := core.Run(c.proto, c.n, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if c.n <= bitRowCut {
		if m.ExactFallbackLandings != m.Landings || m.BucketDraws != 0 || m.CollapsedLandings != 0 {
			t.Fatalf("%s: batch run on the bit-row index left the exact route: %d of %d landings exact, %d bucket draws, %d collapsed",
				c.name, m.ExactFallbackLandings, m.Landings, m.BucketDraws, m.CollapsedLandings)
		}
	} else if m.ExactFallbackLandings != 0 {
		t.Fatalf("%s: pure batch run stepped %d landings on the exact route", c.name, m.ExactFallbackLandings)
	}
	return res
}

func TestBatchPathFingerprints(t *testing.T) {
	cases := batchCases(t)
	if *updateBatch {
		rows := make([]batchFingerprintRow, len(cases))
		for i, c := range cases {
			rows[i] = batchFingerprintOf(c.name, batchRun(t, c, nil))
		}
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(batchFingerprintFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(rows), batchFingerprintFile)
		return
	}

	data, err := os.ReadFile(batchFingerprintFile)
	if err != nil {
		t.Fatal(err)
	}
	var rows []batchFingerprintRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]batchFingerprintRow, len(rows))
	for _, r := range rows {
		want[r.Case] = r
	}
	if len(want) != len(cases) {
		t.Fatalf("%s holds %d rows, the test defines %d cases", batchFingerprintFile, len(want), len(cases))
	}

	ws := core.NewWorkspace()
	budgetCollapses := 0
	for _, c := range cases {
		row, ok := want[c.name]
		if !ok {
			t.Fatalf("case %s has no committed row", c.name)
		}
		budget := c.maxSteps
		if budget == 0 {
			budget = core.DefaultMaxSteps(c.n)
		}
		if !row.Converged && row.Steps == budget && row.CollapsedLandings > 0 {
			budgetCollapses++
		}
		for _, mode := range []string{"fresh", "workspace"} {
			var w *core.Workspace
			if mode == "workspace" {
				w = ws
			}
			t.Run(c.name+"/engine=batch/"+mode, func(t *testing.T) {
				if got := batchFingerprintOf(c.name, batchRun(t, c, w)); got != row {
					t.Fatalf("fingerprint diverged from the committed table:\ngot  %+v\nwant %+v", got, row)
				}
			})
		}
	}
	// The table must exercise the budget cut inside a collapsed run: a
	// row that ended at its budget after collapsing landings.
	if budgetCollapses == 0 {
		t.Fatalf("no row of %s ended at its budget with collapsed landings", batchFingerprintFile)
	}
}
