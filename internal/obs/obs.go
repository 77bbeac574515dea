// Package obs is the observability layer for hours-long
// characterization sweeps: structured logging, a zero-allocation
// metrics registry, pipeline stage spans recorded as registry
// histograms, a live debug HTTP endpoint, and an auditable per-run
// manifest. It is stdlib-only (log/slog, expvar, net/http/pprof) and
// is safe to import from any library package — the hot-path primitives
// (Counter.Inc, Gauge.Set, Histogram.Observe) are single atomic
// operations that never allocate, so instrumentation inside the cycle
// loop does not move the performance gate.
//
// The paper-scale evaluation is a 100-corner × 4-FU × multi-dataset DTA
// grid (PAPER.md §V) that runs for hours; without this layer the only
// window into a running sweep was pprof flags and ad-hoc stderr prints.
// Related timing-error frameworks that serve predictions online (FATE;
// Ajirlou & Partin-Vaisband, see PAPERS.md) treat per-stage latency and
// error counters as first-class signals — this package gives the TEVoT
// pipeline the same.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync/atomic"
)

// defaultLogger is the process-wide logger; SetupLogging replaces it.
// The zero configuration logs text at Info to stderr, so library
// packages can log through obs.Logger before any CLI wiring runs.
var defaultLogger atomic.Pointer[slog.Logger]

func init() {
	defaultLogger.Store(newLogger("info", "text", os.Stderr))
}

// ParseLevel maps the -log-level flag values to slog levels.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

func newLogger(level, format string, w io.Writer) *slog.Logger {
	lvl, err := ParseLevel(level)
	if err != nil {
		lvl = slog.LevelInfo
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	if strings.EqualFold(format, "json") {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return slog.New(h)
}

// SetupLogging installs the process-wide default logger from the
// -log-level (debug|info|warn|error) and -log-format (text|json) flag
// values. A nil writer means stderr.
func SetupLogging(level, format string, w io.Writer) error {
	if _, err := ParseLevel(level); err != nil {
		return err
	}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", "text", "json":
	default:
		return fmt.Errorf("obs: unknown log format %q (want text|json)", format)
	}
	if w == nil {
		w = os.Stderr
	}
	defaultLogger.Store(newLogger(level, format, w))
	return nil
}

// Default returns the process-wide logger.
func Default() *slog.Logger { return defaultLogger.Load() }

// Logger returns a child logger tagged with the component name, e.g.
// obs.Logger("runner"). Children observe later SetupLogging calls only
// if re-created, so library packages should call Logger at use sites
// (or re-fetch per operation) rather than caching across a CLI's flag
// parsing; in practice every CLI calls SetupLogging before any work
// runs, so a package-level child is fine too.
func Logger(component string) *slog.Logger {
	return Default().With("component", component)
}
