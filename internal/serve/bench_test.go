package serve

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/obs"
	"tevot/internal/workload"
)

// benchModel trains one compact history-free model per bench binary —
// the small-request regime coalescing targets: per-row inference is
// cheap (66-wide features, shallow trees), so per-request fixed costs
// dominate the uncoalesced path.
var (
	benchModelOnce sync.Once
	benchModelVal  *core.Model
	benchModelErr  error
)

func benchModel() (*core.Model, error) {
	benchModelOnce.Do(func() {
		u, err := core.NewFUnit(circuits.IntAdd32)
		if err != nil {
			benchModelErr = err
			return
		}
		tr, err := core.Characterize(u, cells.Corner{V: 0.88, T: 50}, workload.RandomInt(201, 7), nil)
		if err != nil {
			benchModelErr = err
			return
		}
		cfg := core.DefaultConfig()
		cfg.History = false
		benchModelVal, benchModelErr = core.Train(circuits.IntAdd32, []*core.Trace{tr}, cfg)
	})
	return benchModelVal, benchModelErr
}

// BenchmarkServeBatch measures coalesced serving throughput at the
// item level (enqueue → take → flush → scatter, no HTTP): one driver
// floods 1-row items through one unit while a single worker takes them
// from the queue and flushes. batch=1 is the uncoalesced baseline —
// every item pays its own queue receive and flush fixed costs;
// batch=8/64 amortize those over the riders. The items/s delta between batch=1
// and batch=64 is the coalescer's win (acceptance: ≥3× on 1-row
// items); ns/op feeds the benchdiff regression gate.
func BenchmarkServeBatch(b *testing.B) {
	// go test merges the binary's stderr into stdout, so the server's
	// Info-level "ready" line would split the benchmark result line and
	// break scripts/benchjson.sh's parser. Warnings stay visible.
	if err := obs.SetupLogging("warn", "text", os.Stderr); err != nil {
		b.Fatal(err)
	}
	for _, bs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", bs), func(b *testing.B) {
			model, err := benchModel()
			if err != nil {
				b.Fatal(err)
			}
			s, err := New(Config{Model: model, Workers: 1, QueueDepth: 2 * bs, BatchSize: bs})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			u := s.units[0]

			// A ring of in-flight items twice the queue depth: the
			// driver re-admits an item only after its previous flight
			// finished, so the coalescer sees a steady open flood.
			pairs := workload.RandomInt(2, 3).Pairs // 1 predicted row per item
			ring := make([]*batchItem, 4*bs)
			inFlight := make([]bool, len(ring))
			for i := range ring {
				ring[i] = &batchItem{
					ctx:    context.Background(),
					corner: cells.Corner{V: 0.88, T: 50},
					pairs:  pairs,
					rows:   1,
					done:   make(chan struct{}, 1),
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := ring[i%len(ring)]
				if inFlight[i%len(ring)] {
					<-it.done
					if it.err != nil {
						b.Fatal(it.err)
					}
				}
				for !u.admit(it) {
					runtime.Gosched()
				}
				inFlight[i%len(ring)] = true
			}
			for i, it := range ring {
				if inFlight[i] {
					<-it.done
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "items/s")
		})
	}
}
