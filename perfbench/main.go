// Command perfbench is TEVoT's end-to-end benchmark. It drives both hot
// paths through the repository's public packages: the offline pipeline
// (gate-level DTA → features → forest fit → evaluation) and the online
// predictor (HTTP handler → coalescer → features → forest walk → encode).
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// per-layer timing. With --trace 1 it re-runs the workload with the
// benchmark's own calls into each layer wrapped in timers, prints the
// per-layer ledger, checks that the ledger sums back to an untraced
// measurement taken in the same process, and reports the per-layer
// metrics. The last line of standard output is always one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// Every output is checked: DTA traces against recorded digests, Table III
// accuracies against recorded values, and sampled serve responses
// against core.Model.PredictDelays on the same pairs. A mismatch counts
// as a failed operation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Params are one invocation's inputs.
type Params struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Tiny shrinks every workload to smoke-test size (the package test).
	Tiny bool
}

// bench runs one benchmark workload and returns its result; the
// metric set is endToEnd (trace off) or perLayer (trace on), with every
// name present.
type bench struct {
	why string
	run func(p Params) (*Result, error)
}

var workloads = map[string]bench{
	"dta-imaging": {"sim memo-hit and window tiers do most of the work (Sobel/Gauss INT_MUL image streams)", runDTA},
	"table3":      {"reduced Table III: forest fit and cascade-heavy sim dominate, memo nearly bypassed", runTable3},
	"serve-small": {"3-pair requests: per-request fixed costs (codec, admission, MaxWait) dominate", func(p Params) (*Result, error) { return runServe(p, smallServe) }},
	"serve-bulk":  {"1025-pair requests: feature fill and forest walk dominate", func(p Params) (*Result, error) { return runServe(p, bulkServe) }},
}

// endToEnd and perLayer list every metric name with its unit; each
// workload reports all of them (a layer a workload never enters reports
// 0). BENCHMARK.json mirrors these lists.
//
// The end-to-end metrics mean, per workload:
//
//	setup_s   median of repeated set-ups: build units, warm STA, profile
//	          apps, train the served model
//	op_ms     op time: for the batch workloads, whose ops repeat
//	          identical work, the p10 of dta-imaging passes and of table3
//	          Table3Runs (see workTime); for serving, the p50 of requests
//	          at the light rate, timed from their scheduled send time
//	tail_ms   a high percentile of that op time with at least ten
//	          samples beyond it: p75 of serve requests at the light rate
//	          (their p90 and p99 move with host stalls, not with the
//	          server; both are printed, and the p99 is traced as
//	          loadgen.light.p99_ms). The batch workloads have no
//	          per-request tail and repeat op_ms: the spread of identical
//	          passes or runs above their p10 measures the host.
//	alloc_mb  MB allocated per op (serve: per 1000 requests)
var endToEnd = map[string]string{
	"setup_s":  "s",
	"op_ms":    "ms",
	"tail_ms":  "ms",
	"alloc_mb": "MB",
}

var perLayer = map[string]string{
	"netlist.build_s":              "s",
	"sta.analyze_ms":               "ms",
	"experiments.lab_s":            "s",
	"experiments.core_utilization": "ratio",
	"sim.busy_s":                   "s",
	"sim.cycles":                   "count",
	"sim.events":                   "count",
	"sim.hit_ns":                   "ns",
	"sim.miss_ns":                  "ns",
	"sim.window_ns":                "ns",
	"sim.ns_per_event":             "ns",
	"sim.ns_per_cycle":             "ns",
	"sim.memo_hit_ratio":           "ratio",
	"sim.window_pruned_ratio":      "ratio",
	"sim.memo_evictions":           "count",
	"sim.alloc_mb":                 "MB",
	"features.ns_per_row":          "ns",
	"ml.fit_s":                     "s",
	"ml.fit_rows":                  "count",
	"ml.walk_ns_per_row":           "ns",
	"ml.predict_ns_per_row":        "ns",
	"core.eval_s":                  "s",
	"paper.sim_vs_inference_x":     "ratio",
	"serve.handler_us":             "us",
	"serve.queue_us":               "us",
	"serve.inference_us":           "us",
	"serve.codec_us":               "us",
	"serve.batch_items":            "count",
	"serve.batch_rows":             "count",
	"serve.flush.size":             "ratio",
	"serve.flush.timer":            "ratio",
	"serve.flush.rows":             "ratio",
	"loadgen.late_p99_ms":          "ms",
	"loadgen.light.sent":           "count",
	"loadgen.light.ok":             "count",
	"loadgen.light.shed":           "count",
	"loadgen.light.timeout":        "count",
	"loadgen.heavy.sent":           "count",
	"loadgen.heavy.ok":             "count",
	"loadgen.heavy.shed":           "count",
	"loadgen.heavy.timeout":        "count",
	"loadgen.light.p99_ms":         "ms",
	"loadgen.heavy.p50_ms":         "ms",
	"loadgen.heavy.p99_ms":         "ms",
	"ledger.total_ms":              "ms",
	"ledger.untraced_ms":           "ms",
	"ledger.overhead_ratio":        "ratio",
	"ledger.within_tolerance":      "count",
	"share.sim":                    "ratio",
	"share.features":               "ratio",
	"share.ml.fit":                 "ratio",
	"share.ml.walk":                "ratio",
	"share.core":                   "ratio",
	"share.serve.queue":            "ratio",
	"share.serve.codec":            "ratio",
	"share.loadgen.late":           "ratio",
	"share.idle":                   "ratio",
}

// newResult returns a result pre-filled with every name of the selected
// metric set at 0, so a layer a workload never enters still reports.
func newResult(trace bool) *Result {
	set := endToEnd
	if trace {
		set = perLayer
	}
	r := &Result{Metrics: make(map[string]Metric, len(set))}
	for name, unit := range set {
		r.Metrics[name] = Metric{0, unit}
	}
	return r
}

// set records a metric the workload measured; the name must be declared.
func (r *Result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	m.Value = v
	r.Metrics[name] = m
}

// check counts one checked operation and whether its output was right.
func (r *Result) check(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement time")
	trace := flag.Int("trace", 0, "1 = traced per-layer run")
	record := flag.String("record", "", "recompute the recorded digests into this file and exit")
	flag.Parse()

	if *record != "" {
		if err := recordAll(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q; have %v\n", *name, names)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	// One process, at most one scheduler thread per CPU.
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	start := time.Now()
	printJSONLine(map[string]any{"host": hostInfo(), "workload": *name, "why": w.why, "seed": *seed, "trace": *trace == 1})
	res, err := w.run(Params{Seed: *seed, Seconds: *seconds, Trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(os.Stderr, "perfbench: %s done in %.1fs: %d attempted, %d failed\n", *name, time.Since(start).Seconds(), res.Attempted, res.Failed)
	printJSONLine(res)
}

func printJSONLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding output:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
