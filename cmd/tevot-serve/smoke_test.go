package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/obs"
	"tevot/internal/workload"
)

// TestServeAbuseSmoke is the end-to-end hardening check from ISSUE
// acceptance: build the binary, boot it on an ephemeral port with a
// deliberately tiny admission queue, then abuse it — a concurrent burst
// past queue capacity, a corrupt-gob hot-reload, and SIGTERM with a
// request in flight. Every predict must answer 200/429/503 (never a
// crash or a 500), the corrupt reload must be rejected while serving
// continues, the in-flight request must complete through the drain, and
// the final manifest's counters must account for every request:
//
//	requests == served + shed + timeouts + canceled + bad_requests
//	            + internal_errors
func TestServeAbuseSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	dir := t.TempDir()

	// Train a small model and write the artifacts the run needs: a good
	// gob to serve, and a corrupt one for the reload abuse.
	u, err := core.NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.Characterize(u, cells.Corner{V: 0.88, T: 50}, workload.RandomInt(401, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Train(circuits.IntAdd32, []*core.Trace{tr}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var gob bytes.Buffer
	if err := model.Save(&gob); err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "model.tevot")
	if err := os.WriteFile(modelPath, gob.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	corruptPath := filepath.Join(dir, "corrupt.tevot")
	if err := os.WriteFile(corruptPath, gob.Bytes()[:gob.Len()/4], 0o644); err != nil {
		t.Fatal(err)
	}

	bin := filepath.Join(dir, "tevot-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	manifest := filepath.Join(dir, "run.json")
	cmd := exec.Command(bin,
		"-model", modelPath, "-addr", "127.0.0.1:0",
		"-workers", "1", "-queue", "1", "-drain-timeout", "10s",
		"-max-pairs", "100001", "-run-json", manifest,
		"-debug-addr", "127.0.0.1:0",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Both endpoints log their bound address (":0" runs): the obs debug
	// endpoint first, then the prediction listener.
	addrRe := regexp.MustCompile(`addr=(http://[0-9.:]+)`)
	var base, debugBase string
	var logTail strings.Builder
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		logTail.WriteString(line + "\n")
		m := addrRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if strings.Contains(line, "debug endpoint") {
			debugBase = m[1]
		} else if strings.Contains(line, "prediction endpoint") {
			base = m[1]
		}
		if base != "" && debugBase != "" {
			break
		}
	}
	if base == "" || debugBase == "" {
		t.Fatalf("missing listen addresses in stderr (predict %q, debug %q):\n%s",
			base, debugBase, logTail.String())
	}
	go func() {
		for sc.Scan() {
		}
	}()

	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(base + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}

	// Predict round-trip before the abuse starts.
	body := predictBody(64)
	status, data := post(t, base+"/v1/predict", body)
	if status != http.StatusOK {
		t.Fatalf("warm-up predict: %d: %s", status, data)
	}
	var warm struct {
		Delays []float64     `json:"delays"`
		Clocks []interface{} `json:"clocks"`
	}
	if err := json.Unmarshal(data, &warm); err != nil || len(warm.Delays) != 63 {
		t.Fatalf("warm-up predict response: %v: %s", err, data)
	}

	// Abuse 1 — burst far past queue capacity (1 worker, 1 queue slot, 40
	// concurrent heavy requests): every response must be 200, 429, or
	// 503, with shedding actually observed. The batches are big enough
	// (50k pairs each) that one inference takes tens of milliseconds —
	// the burst piles up against the 1-deep queue instead of draining as
	// fast as connections open.
	burst := predictBody(50000)
	var wg sync.WaitGroup
	statuses := make([]int, 40)
	burstErrs := make(chan error, len(statuses))
	for i := range statuses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, _, err := tryPost(base+"/v1/predict", burst)
			if err != nil {
				burstErrs <- err
				return
			}
			statuses[i] = st
		}(i)
	}
	wg.Wait()
	close(burstErrs)
	for err := range burstErrs {
		t.Errorf("burst request failed at the transport: %v", err)
	}
	counts := map[int]int{}
	for _, st := range statuses {
		counts[st]++
		switch st {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Errorf("burst answered %d; want only 200/429/503", st)
		}
	}
	if counts[http.StatusOK] == 0 {
		t.Errorf("burst: no request served: %v", counts)
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Errorf("burst past a 1-deep queue shed nothing: %v", counts)
	}

	// Abuse 2 — corrupt-gob reload is rejected and serving continues.
	status, data = post(t, base+"/admin/reload", `{"path":"`+corruptPath+`"}`)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt reload: %d, want 422: %s", status, data)
	}
	status, data = post(t, base+"/v1/predict", body)
	if status != http.StatusOK {
		t.Fatalf("predict after corrupt reload: %d: %s", status, data)
	}
	// A good reload (empty body → -model path) must still work.
	status, data = post(t, base+"/admin/reload", "")
	if status != http.StatusOK {
		t.Fatalf("good reload: %d: %s", status, data)
	}

	// Abuse 3 — SIGTERM with a request in flight: the drain must answer
	// it over HTTP (200 once admitted, or an orderly 429 if the signal
	// wins the race into the handler), then the process must exit 0. The
	// signal is sent only once serve.requests shows the handler has
	// entered, so the request is never lost to a closed listener.
	before := serveRequests(t, debugBase)
	inflight := make(chan int, 1)
	go func() {
		st, _, err := tryPost(base+"/v1/predict", burst)
		if err != nil {
			t.Logf("in-flight POST transport error: %v", err)
			st = -1
		}
		inflight <- st
	}()
	deadline := time.Now().Add(10 * time.Second)
	for serveRequests(t, debugBase) <= before {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight request never reached the handler (requests=%d, before=%d)",
				serveRequests(t, debugBase), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case st := <-inflight:
		if st != http.StatusOK && st != http.StatusTooManyRequests {
			t.Errorf("in-flight request during drain answered %d, want 200 (drained) or 429 (shed while draining)", st)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("in-flight request never answered during drain")
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with error after SIGTERM: %v\nlog:\n%s", err, logTail.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}

	// The manifest must exist and its counters must account for every
	// request in exactly one outcome.
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("run manifest not written: %v", err)
	}
	var m struct {
		Command  string `json:"command"`
		ExitCode int    `json:"exit_code"`
		Metrics  struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("manifest not JSON: %v\n%s", err, raw)
	}
	if m.Command != "tevot-serve" || m.ExitCode != 0 {
		t.Errorf("manifest command/exit = %q/%d, want tevot-serve/0", m.Command, m.ExitCode)
	}
	c := m.Metrics.Counters
	total := c["serve.served"] + c["serve.shed"] + c["serve.timeouts"] +
		c["serve.canceled"] + c["serve.bad_requests"] + c["serve.internal_errors"]
	if c["serve.requests"] == 0 || c["serve.requests"] != total {
		t.Errorf("accounting identity broken: requests=%d, outcomes sum=%d (%v)",
			c["serve.requests"], total, c)
	}
	if c["serve.internal_errors"] != 0 || c["serve.panics"] != 0 {
		t.Errorf("abuse run hit internal errors/panics: %v", c)
	}
	if c["serve.reloads_failed"] != 1 || c["serve.reloads_ok"] != 1 {
		t.Errorf("reload counters = ok:%d failed:%d, want 1/1", c["serve.reloads_ok"], c["serve.reloads_failed"])
	}
	if c["serve.shed"] == 0 {
		t.Errorf("manifest records no shed requests: %v", c)
	}
}

// serveRequests reads the serve.requests counter off the live debug
// endpoint's /metrics exposition.
func serveRequests(t *testing.T, debugBase string) int64 {
	t.Helper()
	resp, err := http.Get(debugBase + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	n, _ := obs.PromCounterTotal(fams, "tevot_serve_requests_total")
	return int64(n)
}

// post fires one POST with a JSON body and returns (status, body);
// transport-level errors fail the test immediately — the abuse contract
// is that the server always answers. Only call from the test goroutine;
// concurrent callers use tryPost and report through channels.
func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	status, data, err := tryPost(url, body)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return status, data
}

func tryPost(url, body string) (int, []byte, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// predictBody builds a valid /v1/predict body with n operand pairs.
func predictBody(n int) string {
	var b strings.Builder
	b.WriteString(`{"voltage":0.88,"temperature":50,"clocks":[400,700],"pairs":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"a":%d,"b":%d}`, uint32(i)*2654435761, uint32(i)*40503+99991)
	}
	b.WriteString("]}")
	return b.String()
}
