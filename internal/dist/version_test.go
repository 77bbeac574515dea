package dist

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRegisterRefusesOtherProtocolVersion: a worker of another build,
// which sends another protocol version or none, is refused at register
// with a 4xx naming both versions. It is not registered, no lease is
// issued, and RunWorker returns the refusal instead of leasing.
func TestRegisterRefusesOtherProtocolVersion(t *testing.T) {
	coord, err := NewCoordinator(CoordConfig{
		Spec: testSpec(), Out: filepath.Join(t.TempDir(), "merged.jsonl"),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := coord.Handler()
	srv := httptest.NewServer(h)
	defer srv.Close()
	want := fmt.Sprintf("version %d", protocolVersion)
	for _, tc := range []struct {
		name, body, worker string
	}{
		{"other version", `{"worker":"newer","version":99}`, "version 99"},
		{"no version", `{"worker":"older"}`, "no protocol version"},
	} {
		resp, err := http.Post(srv.URL+"/v1/register", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("%s: register answered %d, want a 4xx", tc.name, resp.StatusCode)
		}
		for _, s := range []string{tc.worker, want} {
			if !strings.Contains(string(msg), s) {
				t.Errorf("%s: refusal %q does not name %q", tc.name, msg, s)
			}
		}

		// The same body from a real worker: a proxy stands in for the
		// other build by rewriting its register request.
		proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/register" {
				r.Body = io.NopCloser(strings.NewReader(tc.body))
				r.ContentLength = int64(len(tc.body))
			}
			h.ServeHTTP(w, r)
		}))
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = RunWorker(ctx, WorkerConfig{ID: "w-" + strings.ReplaceAll(tc.name, " ", "-"), Coordinator: proxy.URL})
		cancel()
		proxy.Close()
		if err == nil || !strings.Contains(err.Error(), "register") || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: RunWorker returned %v, want the register refusal", tc.name, err)
		}
	}
	p := coord.Progress()
	if p.Leased != 0 || p.Done != 0 || len(p.Workers) != 0 {
		t.Errorf("after refusals: %d leased, %d done, %d workers; want none", p.Leased, p.Done, len(p.Workers))
	}
	if p.Pending != p.Cells {
		t.Errorf("after refusals: %d of %d cells pending", p.Pending, p.Cells)
	}
}
