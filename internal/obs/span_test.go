package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// The default registry has no reset hook, so every span test reads a
// stage histogram before and after and checks the delta.

func stageHist(name string) *Histogram {
	return NewHistogram("stage."+name+".seconds", DurationBuckets)
}

func TestSpanAggregates(t *testing.T) {
	h := stageHist("test.stage")
	n0, sum0 := h.Count(), h.Sum()
	for i := 0; i < 3; i++ {
		end := Time("test.stage")
		time.Sleep(time.Millisecond)
		end()
	}
	if got := h.Count() - n0; got != 3 {
		t.Errorf("Count delta = %d, want 3", got)
	}
	total := h.Sum() - sum0
	if total < 0.003 {
		t.Errorf("Sum delta = %vs, want >= 0.003 (3 × 1ms sleeps)", total)
	}
	if h.Max() < 0.001 || h.Max() > h.Sum() {
		t.Errorf("inconsistent aggregates: max %v, sum %v", h.Max(), h.Sum())
	}
}

func TestTime(t *testing.T) {
	h := stageHist("test.time")
	n0 := h.Count()
	end := Time("test.time")
	end()
	if got := h.Count() - n0; got != 1 {
		t.Fatalf("Time() recorded %d observations, want 1", got)
	}
}

// TestStageTable checks a completed stage reaches /metrics as a
// histogram family that survives the strict parser.
func TestStageTable(t *testing.T) {
	const fam = "tevot_stage_test_tbl_seconds"
	count := func() float64 {
		t.Helper()
		var b strings.Builder
		if err := defaultRegistry.WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		fams, err := ParseProm(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("exposition rejected by the strict parser: %v", err)
		}
		f, ok := fams[fam]
		if !ok {
			return 0
		}
		if f.Type != "histogram" {
			t.Fatalf("%s has type %q, want histogram", fam, f.Type)
		}
		for _, s := range f.Samples {
			if s.Name == fam+"_count" {
				return s.Value
			}
		}
		t.Fatalf("%s has no _count sample", fam)
		return 0
	}
	before := count()
	Time("test.tbl")()
	if got := count() - before; got != 1 {
		t.Fatalf("%s_count rose by %v, want 1", fam, got)
	}
}

// TestSpanConcurrent overlaps spans of the same name from many
// goroutines; meaningful under -race.
func TestSpanConcurrent(t *testing.T) {
	h := stageHist("test.conc")
	n0 := h.Count()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				Time("test.conc")()
			}
		}()
	}
	wg.Wait()
	if got := h.Count() - n0; got != 8*200 {
		t.Fatalf("Count delta = %d, want %d", got, 8*200)
	}
}
