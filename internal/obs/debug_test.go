package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestServeDebug(t *testing.T) {
	NewCounter("debug_test_counter").Inc()
	Time("test.debug")()
	progress := func() any { return map[string]any{"status": "running", "done": 3} }
	ds, err := ServeDebug("127.0.0.1:0", progress)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	base := "http://" + ds.Addr()

	code, body := get(t, base+"/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status = %d", code)
	}
	var prog map[string]any
	if err := json.Unmarshal(body, &prog); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if prog["status"] != "running" {
		t.Errorf("/progress status field = %v, want running", prog["status"])
	}

	code, body = get(t, base+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("/debug/vars has no memstats var")
	}

	code, body = get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	fams, err := ParseProm(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics rejected by the strict parser: %v", err)
	}
	stage := false
	for name, f := range fams {
		if strings.HasPrefix(name, "tevot_stage_") && f.Type == "histogram" {
			stage = true
		}
	}
	if !stage {
		t.Errorf("/metrics has no tevot_stage_* histogram family (%d families)", len(fams))
	}

	code, body = get(t, base+"/")
	if code != http.StatusOK || !strings.Contains(string(body), "/progress") {
		t.Errorf("index status = %d body = %q", code, body)
	}

	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", code)
	}

	if code, _ := get(t, base+"/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", code)
	}
}

func TestServeDebugNilProgress(t *testing.T) {
	ds, err := ServeDebug("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	code, body := get(t, "http://"+ds.Addr()+"/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status = %d", code)
	}
	var prog map[string]any
	if err := json.Unmarshal(body, &prog); err != nil {
		t.Fatalf("/progress not JSON: %v", err)
	}
	if prog["status"] != "no-progress-source" {
		t.Errorf("status = %v, want no-progress-source", prog["status"])
	}
}

func TestServeDebugBadAddr(t *testing.T) {
	if _, err := ServeDebug("256.256.256.256:99999", nil); err == nil {
		t.Fatal("bad address accepted")
	}
}
