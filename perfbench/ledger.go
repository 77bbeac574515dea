package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// ledgerTolerance bounds how far the traced run's per-op total may sit
// from the untraced end-to-end number measured in the same process.
// The difference is the tracing overhead plus run-to-run noise; the
// smoke-sized runs of the package test time ops of a few milliseconds,
// so they get a wider band.
const (
	ledgerTolerance     = 0.15
	tinyLedgerTolerance = 0.5
)

// Ledger accumulates per-layer busy time over a traced run. Work runs on
// lanes (goroutines the benchmark starts, e.g. one per shard or per FU),
// so rows are in lane-seconds; an op's capacity is its wall time times
// its lane count, and the "idle" row is capacity not covered by any
// layer (lanes that finished early, serial set-up between lanes).
// Rendering scales every row by wall/capacity, so the rows sum to the
// traced wall time per op.
type Ledger struct {
	rows     map[string]float64 // lane-seconds per row
	moves    map[string]string  // row -> end-to-end metric it should move
	capacity float64            // Σ wall × lanes, lane-seconds
	wall     float64            // Σ op wall time, seconds
	ops      int
	tol      float64
}

func newLedger(p Params, moves map[string]string) *Ledger {
	tol := ledgerTolerance
	if p.Tiny {
		tol = tinyLedgerTolerance
	}
	return &Ledger{rows: make(map[string]float64), moves: moves, tol: tol}
}

// add charges sec lane-seconds to a row.
func (l *Ledger) add(row string, sec float64) { l.rows[row] += sec }

// span charges the capacity of a stretch of wall time run on lanes
// lanes; an op is made of one or more spans.
func (l *Ledger) span(wall time.Duration, lanes int) {
	l.wall += wall.Seconds()
	l.capacity += wall.Seconds() * float64(lanes)
}

// endOp closes one traced operation.
func (l *Ledger) endOp() { l.ops++ }

// shares returns every row's share of capacity, idle included.
func (l *Ledger) shares() map[string]float64 {
	out := make(map[string]float64, len(l.rows)+1)
	busy := 0.0
	for row, s := range l.rows {
		out[row] = s / l.capacity
		busy += s
	}
	out["idle"] = (l.capacity - busy) / l.capacity
	return out
}

// report prints the ledger table, checks that the rows sum to the
// untraced per-op number (untracedMs) within the tolerance, and sets the
// ledger.* and share.* metrics. The verdict is the metric
// ledger.within_tolerance: a host that changes speed mid-run can move
// the two numbers apart, which says nothing about the program's output,
// so it is not counted as a failed op. An empty ledger is.
func (l *Ledger) report(res *Result, untracedMs float64) {
	if l.ops == 0 || l.capacity <= 0 {
		res.check(false)
		return
	}
	perOpMs := 1000 * l.wall / float64(l.ops)
	sh := l.shares()
	names := make([]string, 0, len(sh))
	for row := range sh {
		names = append(names, row)
	}
	sort.Slice(names, func(i, j int) bool { return sh[names[i]] > sh[names[j]] })

	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %12s %8s  %s\n", "layer", "ms/op", "share", "should move")
	sum := 0.0
	for _, row := range names {
		ms := sh[row] * perOpMs
		sum += ms
		fmt.Fprintf(&b, "%-14s %12.3f %7.2f%%  %s\n", row, ms, 100*sh[row], l.moves[row])
	}
	overhead := (perOpMs - untracedMs) / untracedMs
	ok := math.Abs(sum-perOpMs) < 1e-6*perOpMs && !(sh["idle"] < -0.02) && math.Abs(overhead) <= l.tol
	fmt.Fprintf(&b, "%-14s %12.3f  over %d ops; untraced %.3f ms/op; tracing overhead %+.2f%% (tolerance ±%.0f%%): %s\n",
		"total", sum, l.ops, untracedMs, 100*overhead, 100*l.tol, map[bool]string{true: "ok", false: "FAIL"}[ok])
	fmt.Print(b.String())

	res.set("ledger.total_ms", perOpMs)
	res.set("ledger.untraced_ms", untracedMs)
	res.set("ledger.overhead_ratio", overhead)
	if ok {
		res.set("ledger.within_tolerance", 1)
	}
	groups := map[string][]string{
		"share.sim":          {"sim", "sim.hit", "sim.miss", "sim.window"},
		"share.features":     {"features"},
		"share.ml.fit":       {"ml.fit"},
		"share.ml.walk":      {"ml.walk"},
		"share.core":         {"core"},
		"share.serve.queue":  {"serve.queue"},
		"share.serve.codec":  {"serve.codec"},
		"share.loadgen.late": {"loadgen.late"},
		"share.idle":         {"idle"},
	}
	for metric, rows := range groups {
		v := 0.0
		for _, row := range rows {
			v += sh[row]
		}
		res.set(metric, v)
	}
}

// claim prints whether a traced share backs the reason a workload was
// chosen. It informs; it does not count as a failed op.
func claim(text string, v float64, ok bool) {
	verdict := "holds"
	if !ok {
		verdict = "DOES NOT HOLD"
	}
	fmt.Printf("claim: %s: %.1f%% %s\n", text, 100*v, verdict)
}
