package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/experiments"
	"tevot/internal/serve"
	"tevot/internal/workload"
)

// serve-small / serve-bulk: an open-loop Poisson schedule of prediction
// requests against an INT_ADD TEVoT model, dispatched in-process through
// serve.Server.Handler() with the default batch settings (no sockets).
// Latency is timed from each request's scheduled send time, so a stalled
// generator or server charges every request it delays; how late the
// generator dispatched is reported too. The end-to-end numbers come from
// the light rate, and the tail is its p75: on a shared 2-vCPU host the
// heavy phase's p90 and p99, and the light p90 and p99, moved by 20-55%
// between runs, following host stalls rather than the server. So the
// heavy phase runs only in the traced run, and its numbers and the p99s
// are per-layer (loadgen.*).
type serveShape struct {
	bulk         bool    // inference-bound requests (the ledger claim differs)
	pairs        int     // operand pairs per request (pairs-1 predicted cycles)
	light, heavy float64 // offered rates, requests per second
	bodies       int     // distinct request bodies, one drawn per request
	checkEvery   int     // verify every n-th response against PredictDelays
}

var (
	smallServe = serveShape{pairs: 3, light: 2000, heavy: 5000, bodies: 512, checkEvery: 8}
	bulkServe  = serveShape{bulk: true, pairs: 1025, light: 60, heavy: 120, bodies: 128, checkEvery: 2}
)

// serveClock is the one capture period every request asks verdicts for.
const serveClock = 500.0

// queueDepth is the admission bound the benchmark serves with: deep
// enough that a host stall of ~100 ms at the heavy rate queues instead
// of shedding, so no request fails at rates well under capacity. The
// batch settings (size, rows, MaxWait) stay at their defaults.
const queueDepth = 1024

// maxInFlight bounds the generator's outstanding requests; a request
// due while the bound is reached is not sent and counts as failed.
const maxInFlight = 4096

type serveBody struct {
	json     []byte
	corner   cells.Corner
	pairs    []workload.OperandPair
	expected []float64 // core.Model.PredictDelays on the same pairs
}

// serveSetup builds the unit and trains the model the server loads: the
// random training streams of experiments.Small at its three corners.
func serveSetup(seed int64, tiny bool) (m *core.Model, buildS, staS float64, err error) {
	t0 := time.Now()
	u, err := core.NewFUnit(circuits.IntAdd32)
	if err != nil {
		return nil, 0, 0, err
	}
	buildS = time.Since(t0).Seconds()
	scale := experiments.Small()
	t0 = time.Now()
	for _, c := range scale.Corners {
		if _, err := u.Static(c); err != nil {
			return nil, 0, 0, err
		}
	}
	staS = time.Since(t0).Seconds()
	n := scale.TrainCycles
	if tiny {
		n = 150
	}
	var traces []*core.Trace
	for k, c := range scale.Corners {
		tr, err := core.CharacterizeOpts(u, c, workload.Random(false, n+1, seed+int64(k)), nil, core.CharacterizeOptions{})
		if err != nil {
			return nil, 0, 0, err
		}
		traces = append(traces, tr)
	}
	m, err = core.Train(circuits.IntAdd32, traces, core.DefaultConfig())
	return m, buildS, staS, err
}

// serveBodies generates the request bodies from the seed and computes
// each one's expected delays.
func serveBodies(m *core.Model, sh serveShape, seed int64) ([]serveBody, error) {
	rng := rand.New(rand.NewSource(seed))
	type pair struct {
		A uint32 `json:"a"`
		B uint32 `json:"b"`
	}
	out := make([]serveBody, sh.bodies)
	for i := range out {
		b := &out[i]
		b.corner = cells.Corner{V: math.Round((0.8+0.2*rng.Float64())*100) / 100, T: float64(rng.Intn(101))}
		b.pairs = make([]workload.OperandPair, sh.pairs)
		wire := make([]pair, sh.pairs)
		for k := range b.pairs {
			b.pairs[k] = workload.OperandPair{A: rng.Uint32() >> uint(rng.Intn(32)), B: rng.Uint32() >> uint(rng.Intn(32))}
			wire[k] = pair{b.pairs[k].A, b.pairs[k].B}
		}
		var err error
		b.json, err = json.Marshal(map[string]any{
			"voltage": b.corner.V, "temperature": b.corner.T, "pairs": wire, "clocks": []float64{serveClock},
		})
		if err != nil {
			return nil, err
		}
		b.expected, err = m.PredictDelays(b.corner, &workload.Stream{Name: "req", Pairs: b.pairs})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// respWriter is a minimal in-process http.ResponseWriter.
type respWriter struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (w *respWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header)
	}
	return w.h
}

func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *respWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(b)
}

// reqRec is one request's record: offsets from the phase start in ns.
type reqRec struct {
	sched, start, end int64
	body              int
	code              int
	resp              []byte // kept when the response is checked or traced
}

type phaseStats struct {
	recs    []reqRec
	allocMB float64
}

// runPhase offers Poisson arrivals at rate for dur and waits for every
// request to finish. keepAll keeps every response body (traced runs);
// otherwise only every checkEvery-th is kept for verification.
func runPhase(h http.Handler, bodies []serveBody, sh serveShape, rate float64, dur time.Duration, rng *rand.Rand, keepAll bool) phaseStats {
	var offs []int64
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		offs = append(offs, int64(t*1e9))
	}
	recs := make([]reqRec, len(offs))
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	a0 := allocBytes()
	base := time.Now()
	for i, off := range offs {
		if d := time.Duration(off - int64(time.Since(base))); d > 50*time.Microsecond {
			time.Sleep(d)
		}
		r := &recs[i]
		r.sched = off
		r.body = rng.Intn(len(bodies))
		select {
		case sem <- struct{}{}:
		default:
			r.start = int64(time.Since(base))
			r.end = r.start
			continue // generator saturated: not sent, code 0 counts as failed
		}
		wg.Add(1)
		go func(r *reqRec, keep bool) {
			defer wg.Done()
			defer func() { <-sem }()
			req, err := http.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(bodies[r.body].json))
			if err != nil {
				return
			}
			w := &respWriter{}
			r.start = int64(time.Since(base))
			h.ServeHTTP(w, req)
			r.end = int64(time.Since(base))
			r.code = w.code
			if keep {
				r.resp = w.buf.Bytes()
			}
		}(r, keepAll || i%sh.checkEvery == 0)
	}
	wg.Wait()
	return phaseStats{recs: recs, allocMB: float64(allocBytes()-a0) / 1e6}
}

// join appends another phase's requests (offsets stay relative to each
// phase's own start, which is all latency and lateness use).
func (ps phaseStats) join(o phaseStats) phaseStats {
	return phaseStats{recs: append(ps.recs, o.recs...), allocMB: ps.allocMB + o.allocMB}
}

// latencies returns every sent request's latency from its scheduled
// time in ms; a request that did not answer 200 counts as +Inf, so it
// misses any latency bound.
func (ps phaseStats) latencies() []float64 {
	out := make([]float64, len(ps.recs))
	for i, r := range ps.recs {
		if r.code != http.StatusOK {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = float64(r.end-r.sched) / 1e6
	}
	return out
}

// verify checks every kept response against the expected delays and
// verdicts and counts each sent request as one op (failed unless 200).
func (ps phaseStats) verify(res *Result, bodies []serveBody) {
	for _, r := range ps.recs {
		ok := r.code == http.StatusOK
		if ok && r.resp != nil {
			ok = responseMatches(r.resp, &bodies[r.body])
		}
		res.check(ok)
	}
}

func responseMatches(resp []byte, b *serveBody) bool {
	var got struct {
		Delays []float64 `json:"delays"`
		Clocks []struct {
			ClockPs float64 `json:"clock_ps"`
			Errors  []bool  `json:"errors"`
		} `json:"clocks"`
	}
	if err := json.Unmarshal(resp, &got); err != nil {
		return false
	}
	if len(got.Delays) != len(b.expected) || len(got.Clocks) != 1 || len(got.Clocks[0].Errors) != len(b.expected) {
		return false
	}
	for i, d := range b.expected {
		if got.Delays[i] != d || got.Clocks[0].Errors[i] != (d > serveClock) {
			return false
		}
	}
	return true
}

type outcome struct {
	Sent    int `json:"sent"`
	OK      int `json:"ok"`
	Shed    int `json:"shed"`
	Timeout int `json:"timeout"`
}

func (ps phaseStats) outcomes() outcome {
	var o outcome
	for _, r := range ps.recs {
		switch r.code {
		case 0:
		case http.StatusOK:
			o.OK++
		case http.StatusTooManyRequests:
			o.Shed++
		case http.StatusServiceUnavailable:
			o.Timeout++
		}
		if r.code != 0 {
			o.Sent++
		}
	}
	return o
}

func runServe(p Params, sh serveShape) (*Result, error) {
	res := newResult(p.Trace)
	var buildS, staS []float64
	m, setupS, err := medianSetup(3, func() (*core.Model, error) {
		m, b, s, err := serveSetup(p.Seed, p.Tiny)
		buildS, staS = append(buildS, b), append(staS, s)
		return m, err
	})
	if err != nil {
		return nil, err
	}
	bodies, err := serveBodies(m, sh, p.Seed)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Model: m, QueueDepth: queueDepth})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	h := srv.Handler()
	rng := rand.New(rand.NewSource(p.Seed ^ 0x5e5e))
	sec := func(share float64) time.Duration { return time.Duration(share * p.Seconds * float64(time.Second)) }

	warm := runPhase(h, bodies, sh, sh.light, sec(0.1), rng, false)
	warm.verify(res, bodies)
	if !p.Trace {
		light := runPhase(h, bodies, sh, sh.light, sec(0.9), rng, false)
		light.verify(res, bodies)
		ll := light.latencies()
		printSamples("light_latency_ms", ll)
		printJSONLine(map[string]any{"light": light.outcomes()})
		res.set("setup_s", setupS)
		res.set("op_ms", median(ll))
		res.set("tail_ms", quantile(ll, 0.75))
		res.set("alloc_mb", 1000*light.allocMB/float64(len(light.recs)))
		return res, nil
	}

	// Untraced and traced light phases alternate in short chunks, so
	// host-speed drift reaches both sides of the ledger's comparison.
	var untraced, light phaseStats
	for i := 0; i < 3; i++ {
		untraced = untraced.join(runPhase(h, bodies, sh, sh.light, sec(0.1), rng, false))
		light = light.join(runPhase(h, bodies, sh, sh.light, sec(0.1), rng, true))
	}
	heavy := runPhase(h, bodies, sh, sh.heavy, sec(0.3), rng, true)
	for _, ps := range []phaseStats{untraced, light, heavy} {
		ps.verify(res, bodies)
	}
	res.set("netlist.build_s", median(buildS))
	res.set("sta.analyze_ms", 1000*median(staS))
	for _, ph := range []struct {
		name string
		ps   phaseStats
	}{{"light", light}, {"heavy", heavy}} {
		o := ph.ps.outcomes()
		res.set("loadgen."+ph.name+".sent", float64(o.Sent))
		res.set("loadgen."+ph.name+".ok", float64(o.OK))
		res.set("loadgen."+ph.name+".shed", float64(o.Shed))
		res.set("loadgen."+ph.name+".timeout", float64(o.Timeout))
	}
	res.set("loadgen.light.p99_ms", quantile(light.latencies(), 0.99))
	res.set("loadgen.heavy.p50_ms", median(heavy.latencies()))
	res.set("loadgen.heavy.p99_ms", quantile(heavy.latencies(), 0.99))
	var late []float64
	for _, ps := range []phaseStats{light, heavy} {
		for _, r := range ps.recs {
			late = append(late, float64(r.start-r.sched)/1e6)
		}
	}
	res.set("loadgen.late_p99_ms", quantile(late, 0.99))

	bs, err := batchStats(light)
	if err != nil {
		return nil, err
	}
	featNs, walkNs, err := calibrate(m, bodies, bs.meanRows())
	if err != nil {
		return nil, err
	}
	res.set("features.ns_per_row", featNs)
	res.set("ml.walk_ns_per_row", walkNs)
	bs.report(res, featNs)

	led := newLedger(p, map[string]string{
		"loadgen.late": "op_ms on serve-* (generator health, not the server)",
		"serve.queue":  "op_ms on serve-small (MaxWait, coalescing)",
		"serve.codec":  "tail_ms on serve-small, op_ms on serve-bulk",
		"features":     "op_ms on serve-bulk; none on serve-small",
		"ml.walk":      "op_ms on serve-bulk; none on serve-small",
	})
	// The ledger decomposes the requests around the median: every
	// request whose latency lies within the middle tenth of the light
	// phase, each split into generator lateness and its handler time.
	ll := light.latencies()
	lo, hi := quantile(ll, 0.45), quantile(ll, 0.55)
	for i, r := range light.recs {
		if ll[i] < lo || ll[i] > hi {
			continue
		}
		b := bs.items[i]
		handler := float64(r.end-r.start) / 1e9
		feat := float64(b.Rows) * featNs / 1e9
		led.add("loadgen.late", float64(r.start-r.sched)/1e9)
		led.add("serve.queue", float64(b.QueueUS)/1e6)
		led.add("ml.walk", float64(b.InferenceUS)/1e6)
		led.add("features", feat)
		led.add("serve.codec", handler-float64(b.QueueUS+b.InferenceUS)/1e6-feat)
		led.span(time.Duration(r.end-r.sched), 1)
		led.endOp()
	}
	led.report(res, median(untraced.latencies()))
	shares := led.shares()
	inference := (shares["features"] + shares["ml.walk"]) / (1 - shares["loadgen.late"])
	if sh.bulk {
		claim("features + ml walk >= 25% of serve-bulk handler time", inference, inference >= 0.25)
	} else {
		claim("features + ml walk <= 5% of serve-small handler time", inference, inference <= 0.05)
	}
	return res, nil
}

// batchInfo is the batch block of a predict response.
type batchInfo struct {
	QueueUS     int64  `json:"queue_us"`
	InferenceUS int64  `json:"inference_us"`
	Items       int    `json:"items"`
	Rows        int    `json:"rows"`
	Reason      string `json:"flush_reason"`
}

type batchSet struct {
	items     []batchInfo
	handlerUS []float64
}

// batchStats decodes the batch block of every traced response.
func batchStats(ps phaseStats) (*batchSet, error) {
	bs := &batchSet{items: make([]batchInfo, len(ps.recs))}
	for i, r := range ps.recs {
		if r.code != http.StatusOK {
			continue
		}
		var resp struct {
			Batch *batchInfo `json:"batch"`
		}
		if err := json.Unmarshal(r.resp, &resp); err != nil || resp.Batch == nil {
			return nil, fmt.Errorf("response %d has no batch block: %v", i, err)
		}
		bs.items[i] = *resp.Batch
		bs.handlerUS = append(bs.handlerUS, float64(r.end-r.start)/1e3)
	}
	return bs, nil
}

func (bs *batchSet) meanRows() int {
	n, sum := 0, 0
	for _, b := range bs.items {
		if b.Rows > 0 {
			n++
			sum += b.Rows
		}
	}
	if n == 0 {
		return 1
	}
	return (sum + n/2) / n
}

// report sets the serve.* per-layer metrics as means over the light
// phase's served requests (flush reasons as shares of requests).
func (bs *batchSet) report(res *Result, featNs float64) {
	var n, queue, infer, items, rows float64
	reasons := map[string]float64{}
	for _, b := range bs.items {
		if b.Rows == 0 {
			continue
		}
		n++
		queue += float64(b.QueueUS)
		infer += float64(b.InferenceUS)
		items += float64(b.Items)
		rows += float64(b.Rows)
		reasons[b.Reason]++
	}
	if n == 0 {
		return
	}
	handler := 0.0
	for _, h := range bs.handlerUS {
		handler += h
	}
	handler /= float64(len(bs.handlerUS))
	res.set("serve.handler_us", handler)
	res.set("serve.queue_us", queue/n)
	res.set("serve.inference_us", infer/n)
	res.set("serve.codec_us", handler-(queue+infer)/n-rows/n*featNs/1e3)
	res.set("serve.batch_items", items/n)
	res.set("serve.batch_rows", rows/n)
	res.set("serve.flush.size", reasons["size"]/n)
	res.set("serve.flush.timer", reasons["timer"]/n)
	res.set("serve.flush.rows", reasons["rows"]/n)
	fmt.Printf("serve: handler %.1f us = queue %.1f + walk %.1f + features %.1f + codec %.1f (means over %d requests)\n",
		handler, queue/n, infer/n, rows/n*featNs/1e3, handler-(queue+infer)/n-rows/n*featNs/1e3, int(n))
}

// calibrate times the model's two inference calls on a batch of the
// light phase's mean size, built from the benchmark's own bodies:
// Model.FillFeatureRows per row and Model.PredictRowsInto per row.
func calibrate(m *core.Model, bodies []serveBody, rows int) (featNs, walkNs float64, err error) {
	X := make([][]float64, rows)
	for i := range X {
		X[i] = make([]float64, m.Dim())
	}
	dst := make([]float64, rows)
	fill := func() error {
		off := 0
		for i := 0; off < rows; i++ {
			b := &bodies[i%len(bodies)]
			k := len(b.pairs) - 1
			if k > rows-off {
				k = rows - off
			}
			if err := m.FillFeatureRows(X[off:off+k], b.corner, b.pairs[:k+1]); err != nil {
				return err
			}
			off += k
		}
		return nil
	}
	var fillT, walkT time.Duration
	reps := 0
	for fillT+walkT < 100*time.Millisecond || reps < 20 {
		t0 := time.Now()
		if err := fill(); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		if err := m.PredictRowsInto(dst, X); err != nil {
			return 0, 0, err
		}
		walkT += time.Since(t1)
		fillT += t1.Sub(t0)
		reps++
	}
	n := float64(reps * rows)
	return float64(fillT.Nanoseconds()) / n, float64(walkT.Nanoseconds()) / n, nil
}
