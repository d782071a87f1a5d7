// Command perfbench is the repository benchmark. It runs one workload
// — a fixed set of campaign specs whose trial seeds derive from --seed —
// in back-to-back passes through campaign.Execute until --seconds of
// wall time have been measured, checks every run's output, and prints
// one JSON result as the last line of its standard output:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// perfbench/run.sh builds it from the checkout and runs it:
//
//	bash perfbench/run.sh --workload sgl-budget --seed 1 --seconds 10 --trace 0
//
// Every pass executes on one campaign worker: a closed loop in which the
// next trial starts when the previous one has finished, so the figures
// do not depend on how many CPUs the machine lends the process.
//
// With --trace 0 the result carries the end-to-end metrics: simulated
// landings resolved per second of pass wall time, as the median over
// the run's passes so that a pass a shared host slowed does not move it
// (a landing is a scheduler draw on an enabled pair — the unit of work
// every engine must resolve, whether it steps, plans or collapses it —
// so the rate compares runs whose seeds give them different amounts of
// work), and the median set-up time. With --trace 1 the same loop sums what each
// layer boundary reports and prints the per-layer metrics instead (see
// layers.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/campaign"
)

// A run sets its workload up at least minSetups times and until
// setupWindow has elapsed; setup_s is the median of those set-ups.
const (
	minSetups   = 5
	setupWindow = time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "seed the workload's trial seeds derive from")
		seconds = flag.Float64("seconds", 20, "wall time to measure, in seconds")
		trace   = flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}

	var setups []float64
	var points []campaign.Point
	for begin := time.Now(); len(setups) < minSetups || time.Since(begin) < setupWindow; {
		start := time.Now()
		if points, err = w.setup(*seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	// The discarded set-ups' garbage is not the window's to collect.
	runtime.GC()

	window := time.Duration(*seconds * float64(time.Second))
	t, err := measure(w, points, *seed, window, *trace == 1)
	if err != nil {
		return err
	}
	t.verify(points)

	res := result{Correct: len(t.problems) == 0, Attempted: t.trials, Failed: t.failed}
	if *trace == 1 {
		res.Metrics = t.layers.metrics(t.trials, t.wall)
	} else {
		res.Metrics = map[string]metric{
			"landings_per_s": {median(t.rates), "1/s"},
			"setup_s":        {median(setups), "s"},
		}
	}
	for _, p := range t.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
