package main

import (
	"bufio"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"tevot/internal/obs"
)

// TestMetricsExpositionSmoke builds this command, runs a small sweep
// with -debug-addr :0, and scrapes the Prometheus endpoint mid-run: the
// output must survive the strict exposition parser and carry the core
// cycle counter. This is the CLI-level proof that the /metrics surface
// every scraper would point at actually speaks 0.0.4.
func TestMetricsExpositionSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "tevot-sweep")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin,
		"-fu", "INT_ADD", "-grid", "-cycles", "2500", "-workers", "1",
		"-debug-addr", "127.0.0.1:0", "-seed", "7",
		"-run-json", filepath.Join(dir, "run.json"),
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
	go func() {
		for sc.Scan() {
		}
	}()

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	if got := resp.Header.Get("Content-Type"); got != obs.PromContentType {
		t.Errorf("/metrics Content-Type %q, want %q", got, obs.PromContentType)
	}
	fams, err := obs.ParseProm(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics rejected by the strict exposition parser: %v", err)
	}
	if _, ok := fams["tevot_core_cycles_simulated_total"]; !ok {
		t.Errorf("/metrics missing tevot_core_cycles_simulated_total (%d families)", len(fams))
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
}
