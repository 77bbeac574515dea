package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"tevot/internal/obs"
)

// TestDebugEndpointSmoke is the end-to-end observability check: it
// builds this command, starts a small sweep with -debug-addr :0, reads
// the advertised address off the structured log, queries /progress and
// /metrics while the sweep runs, and then verifies the run manifest the
// exiting process wrote.
func TestDebugEndpointSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "tevot-sweep")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	manifest := filepath.Join(dir, "run.json")
	// A 100-corner INT_ADD grid at -workers 1 runs a few seconds — long
	// enough to query the live endpoints, short enough for CI.
	cmd := exec.Command(bin,
		"-fu", "INT_ADD", "-grid", "-cycles", "2500", "-workers", "1",
		"-debug-addr", "127.0.0.1:0", "-run-json", manifest,
		"-seed", "7",
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

	// The Start log line names the actual port: addr=http://127.0.0.1:NNN
	addrRe := regexp.MustCompile(`addr=(http://[0-9.:]+)`)
	var base string
	var logTail strings.Builder
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		logTail.WriteString(line + "\n")
		if m := addrRe.FindStringSubmatch(line); m != nil {
			base = m[1]
			break
		}
	}
	if base == "" {
		t.Fatalf("no debug-endpoint address in stderr:\n%s", logTail.String())
	}
	// Keep draining stderr so the child never blocks on a full pipe.
	go func() {
		for sc.Scan() {
		}
	}()

	queryJSON := func(path string, into any) error {
		resp, err := http.Get(base + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(into)
	}

	var progress map[string]any
	if err := queryJSON("/progress", &progress); err != nil {
		t.Fatalf("/progress: %v", err)
	}
	if progress["status"] == nil || progress["total"] == nil {
		t.Errorf("/progress missing status/total: %v", progress)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	fams, err := obs.ParseProm(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics rejected by the strict exposition parser: %v", err)
	}
	if _, ok := fams["tevot_runner_retries_total"]; !ok {
		t.Errorf("/metrics missing tevot_runner_retries_total (%d families)", len(fams))
	}

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("sweep exited with error: %v\nlog:\n%s", err, logTail.String())
		}
	case <-time.After(120 * time.Second):
		t.Fatal("sweep did not finish in time")
	}

	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("run manifest not written: %v", err)
	}
	var m struct {
		Command string            `json:"command"`
		Seed    int64             `json:"seed"`
		Config  map[string]string `json:"config"`
		Metrics struct {
			Counters   map[string]int64 `json:"counters"`
			Histograms map[string]struct {
				Count int64 `json:"count"`
			} `json:"histograms"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest not JSON: %v\n%s", err, data)
	}
	if m.Command != "tevot-sweep" || m.Seed != 7 {
		t.Errorf("manifest command/seed = %q/%d", m.Command, m.Seed)
	}
	if m.Config["fu"] != "INT_ADD" {
		t.Errorf("manifest config.fu = %q, want INT_ADD", m.Config["fu"])
	}
	if m.Metrics.Counters["runner.cells_ok"] == 0 {
		t.Errorf("manifest counters missing runner.cells_ok: %v", m.Metrics.Counters)
	}
	if m.Metrics.Counters["core.cycles_simulated"] == 0 {
		t.Errorf("manifest counters missing core.cycles_simulated: %v", m.Metrics.Counters)
	}
	for _, stage := range []string{"dta.simulate", "sta.analyze", "experiments.fig3"} {
		name := "stage." + stage + ".seconds"
		if m.Metrics.Histograms[name].Count == 0 {
			t.Errorf("manifest histograms have no %s observations", name)
		}
	}
}
