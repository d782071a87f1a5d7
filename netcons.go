// Package netcons is a Go reproduction of "Simple and Efficient Local
// Codes for Distributed Stable Network Construction" (Michail &
// Spirakis, PODC 2014 / Distributed Computing).
//
// The implementation lives in the internal packages:
//
//	internal/core        the Network Constructor model and engines
//	internal/protocols   every direct constructor (Table 2 rows)
//	internal/processes   the fundamental probabilistic processes (Table 1)
//	internal/graph       graph substrate: predicates, isomorphism, G(n,p)
//	internal/check       exhaustive model checker for small populations
//	internal/tm          the graph languages Section 6 decides, with
//	                     their DGS space classes
//	internal/universal   the generic constructors (Theorems 14–18)
//	internal/scenario    fault injection (crash / edge-delete / reset
//	                     plans) composing with all three engines
//	internal/campaign    the concurrent sweep engine (worker pool,
//	                     streaming aggregation, JSON/CSV export)
//	internal/experiments sweeps shared by cmd/tables and cmd/figures,
//	                     all routed through internal/campaign
//
// See README.md for a tour and EXPERIMENTS.md for paper-vs-measured
// results. The paper's tables come from cmd/tables; each root
// benchmark feeds one scripts/bench.sh suite and its committed
// BENCH_*.json file:
//
//	./scripts/bench.sh [suite ...]
package netcons
