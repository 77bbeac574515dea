package obs

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"tevot/internal/obs/trace"
	"tevot/internal/prof"
)

// Flags is the shared observability flag block every CLI registers:
//
//	-log-level debug|info|warn|error   structured-log threshold
//	-log-format text|json              structured-log encoding
//	-debug-addr host:port              live debug endpoint (":0" = any port)
//	-run-json path                     run manifest destination ("" disables)
//	-cpuprofile / -memprofile path     pprof outputs, folded into the manifest
//	-trace on|off|N                    request-scoped tracing (N = trace-store size)
type Flags struct {
	LogLevel   string
	LogFormat  string
	DebugAddr  string
	RunJSON    string
	CPUProfile string
	MemProfile string
	Trace      string

	fs *flag.FlagSet
}

// RegisterFlags installs the observability flags on fs (the CLIs pass
// flag.CommandLine). Call before flag.Parse.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{fs: fs}
	fs.StringVar(&f.LogLevel, "log-level", "info", "log threshold: debug, info, warn, error")
	fs.StringVar(&f.LogFormat, "log-format", "text", "log encoding: text or json")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve /metrics, /progress, /debug/traces and /debug/pprof on this address (\":0\" picks a port)")
	fs.StringVar(&f.RunJSON, "run-json", "run.json", "write the run manifest to this file (\"\" disables)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file")
	fs.StringVar(&f.Trace, "trace", "on", "request-scoped tracing: on, off, or a trace-store size (traces retained)")
	return f
}

// ParseTraceSetting parses the -trace flag value: "on" (default store
// size), "off" (tracing disabled), or a positive integer store size.
func ParseTraceSetting(v string) (enabled bool, storeSize int, err error) {
	switch v {
	case "", "on":
		return true, trace.DefaultRecent, nil
	case "off":
		return false, 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return false, 0, fmt.Errorf("obs: -trace must be on, off, or a positive store size (got %q)", v)
	}
	return true, n, nil
}

// Run is one CLI invocation's observability lifecycle: logging
// configured, profilers started, debug endpoint serving, manifest
// primed. Close (idempotent) flushes profiles and writes the manifest;
// Exit and Fatal do that before terminating, so no error path loses
// the profiles or the audit record.
type Run struct {
	Log *slog.Logger

	manifest     *Manifest
	manifestPath string
	debug        *DebugServer
	profSession  *prof.Session

	mu        sync.Mutex // guards manifest.Notes / ExitCode
	closeOnce sync.Once
	closeErr  error
}

// Start applies the parsed flags: it configures the default logger,
// starts the profilers, brings up the debug endpoint (when -debug-addr
// is set) with progress as the /progress payload source, and primes the
// run manifest with the resolved configuration. Call after flag.Parse;
// pair with `defer run.Close()`.
func (f *Flags) Start(command string, seed int64, progress func() any) (*Run, error) {
	if err := SetupLogging(f.LogLevel, f.LogFormat, nil); err != nil {
		return nil, err
	}
	traceOn, traceCap, err := ParseTraceSetting(f.Trace)
	if err != nil {
		return nil, err
	}
	if traceOn {
		trace.SetDefault(trace.New(seed, trace.NewStore(traceCap, 0)))
	} else {
		trace.SetDefault(nil)
	}
	ps, err := prof.Start(f.CPUProfile, f.MemProfile)
	if err != nil {
		return nil, err
	}
	r := &Run{
		Log:          Logger(command),
		profSession:  ps,
		manifestPath: f.RunJSON,
		manifest: &Manifest{
			Command:    command,
			Args:       append([]string(nil), os.Args[1:]...),
			Config:     flagValues(f.fs),
			Seed:       seed,
			GoVersion:  runtime.Version(),
			Pid:        os.Getpid(),
			Start:      time.Now(),
			CPUProfile: f.CPUProfile,
			MemProfile: f.MemProfile,
		},
	}
	if host, err := os.Hostname(); err == nil {
		r.manifest.Hostname = host
	}
	if f.DebugAddr != "" {
		ds, err := ServeDebug(f.DebugAddr, progress)
		if err != nil {
			ps.Stop()
			return nil, err
		}
		r.debug = ds
		r.manifest.DebugAddr = ds.Addr()
		// This line is the smoke test's (and the operator's) handle on
		// ":0" runs: it names the actual port to point a browser or
		// `go tool pprof` at.
		r.Log.Info("debug endpoint listening", "addr", "http://"+ds.Addr())
	}
	return r, nil
}

// flagValues captures every flag's resolved value (defaults included),
// so the manifest records the run's effective configuration.
func flagValues(fs *flag.FlagSet) map[string]string {
	if fs == nil {
		return nil
	}
	cfg := make(map[string]string)
	fs.VisitAll(func(fl *flag.Flag) {
		cfg[fl.Name] = fl.Value.String()
	})
	return cfg
}

// DebugAddr returns the live debug address ("" when not serving).
func (r *Run) DebugAddr() string {
	if r.debug == nil {
		return ""
	}
	return r.debug.Addr()
}

// Note records an extra key in the manifest's Notes (e.g. the final
// sweep report). Values must be JSON-marshalable.
func (r *Run) Note(key string, value any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.manifest.Notes == nil {
		r.manifest.Notes = make(map[string]any)
	}
	r.manifest.Notes[key] = value
}

// SetInterrupted marks the manifest as an interrupted (resumable) run.
func (r *Run) SetInterrupted() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.manifest.Interrupted = true
}

// Close flushes the profilers, writes the run manifest, and stops the
// debug endpoint. It is idempotent: CLIs both defer it (covering early
// error returns) and reach it via Exit/Fatal on explicit paths.
func (r *Run) Close() error {
	r.closeOnce.Do(func() {
		// Profiles first: the manifest records their paths and should
		// only do so once the files are complete on disk.
		if err := r.profSession.Stop(); err != nil {
			r.Log.Error("flushing profiles", "err", err)
			r.closeErr = err
		}
		if r.manifestPath != "" {
			r.mu.Lock()
			err := r.manifest.write(r.manifestPath)
			r.mu.Unlock()
			if err != nil {
				r.Log.Error("writing run manifest", "err", err)
				if r.closeErr == nil {
					r.closeErr = err
				}
			} else {
				r.Log.Debug("wrote run manifest", "path", r.manifestPath)
			}
		}
		if r.debug != nil {
			r.debug.Close()
		}
	})
	return r.closeErr
}

// Exit finalizes the run (Close) and terminates the process with code.
// Use instead of os.Exit so the manifest and profiles survive.
func (r *Run) Exit(code int) {
	r.mu.Lock()
	r.manifest.ExitCode = code
	r.mu.Unlock()
	r.Close()
	os.Exit(code)
}

// Fatal logs the error and exits 1 — the obs-aware replacement for
// log.Fatal, which would skip profile flushing and the manifest.
func (r *Run) Fatal(v ...any) {
	r.Log.Error(fmt.Sprint(v...))
	r.Exit(1)
}

// Fatalf is Fatal with formatting.
func (r *Run) Fatalf(format string, args ...any) {
	r.Log.Error(fmt.Sprintf(format, args...))
	r.Exit(1)
}
