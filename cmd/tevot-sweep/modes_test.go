package main

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestModesRefuseUnreadFlags: in every mode, a set flag that the mode
// does not read exits 2 with a message naming it, before any work
// starts — an operator's -shards on a -join worker must not be
// silently replaced by the coordinator's spec.
func TestModesRefuseUnreadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "tevot-sweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-lease-ttl", "5s"}, "lease-ttl"},
		{[]string{"-coordinator", "127.0.0.1:0", "-retries", "2"}, "retries"},
		{[]string{"-join", "http://127.0.0.1:1", "-shards", "2"}, "shards"},
		{[]string{"-cluster", "2", "-out", filepath.Join(dir, "out.jsonl"), "-workers", "3"}, "workers"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, bin, append(c.args, "-run-json", "")...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		cancel()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(string(out), "-"+c.flag+" is not read") {
			t.Errorf("%v: %v, output %q; want exit 2 naming -%s", c.args, err, out, c.flag)
		}
	}
}
