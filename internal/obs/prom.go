package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), written with the
// standard library only: /metrics is the live view of the registry, in
// the format every scraper, alertmanager, and dashboard already
// speaks. Naming follows the Prometheus conventions: the registry's
// dotted names ("core.cycles_simulated") become underscore names under
// a "tevot_" prefix, counters gain the "_total" suffix, histograms
// expand into cumulative "_bucket{le=...}" series plus "_sum" and
// "_count".
//
// The strict parser in promparse.go is the writer's test harness and
// the check.sh scrape validator; the two are developed as a pair.

// PromContentType is the Content-Type of the exposition endpoint.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromPrefix is the metric-name prefix for everything this process
// exports.
const PromPrefix = "tevot"

// promName sanitizes a registry name into a valid Prometheus metric
// name under the prefix: dots and any other invalid runes become
// underscores.
func promName(prefix, name string) string {
	var b strings.Builder
	b.Grow(len(prefix) + 1 + len(name))
	b.WriteString(prefix)
	b.WriteByte('_')
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9' && i > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a float64 sample value. Prometheus accepts "+Inf",
// "-Inf" and "NaN" spellings for the non-finite values.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// LabeledSnapshot pairs a registry snapshot with the label set its
// samples carry in a multi-snapshot exposition document.
type LabeledSnapshot struct {
	Labels map[string]string
	Snap   RegistrySnapshot
}

// WritePromSnapshots renders several labeled snapshots as ONE
// exposition document: each family gets a single # TYPE declaration
// followed by every snapshot's samples, distinguished by their label
// sets. This is the /cluster/metrics writer — per-worker snapshots plus
// the merged fleet view in one strict-parser-clean document. Label sets
// must make the series distinct (worker="..." per snapshot); a name
// declared with two different types, or appearing twice within one
// snapshot after sanitization, is a collision error.
func WritePromSnapshots(w io.Writer, prefix string, snaps []LabeledSnapshot) error {
	type family struct {
		name, typ string
		emit      []func(io.Writer) error
		lastSnap  int
	}
	fams := make(map[string]*family)
	add := func(si int, name, typ string, emit func(io.Writer) error) error {
		f, ok := fams[name]
		if !ok {
			f = &family{name: name, typ: typ, lastSnap: -1}
			fams[name] = f
		}
		if f.typ != typ {
			return fmt.Errorf("obs: prometheus family %s declared as both %s and %s", name, f.typ, typ)
		}
		if f.lastSnap == si {
			return fmt.Errorf("obs: prometheus family name collision: %s", name)
		}
		f.lastSnap = si
		f.emit = append(f.emit, emit)
		return nil
	}
	for si, ls := range snaps {
		s, extraLabels := ls.Snap, ls.Labels
		labels := renderLabels(extraLabels)
		for name, v := range s.Counters {
			n, v := promName(prefix, name)+"_total", v
			if err := add(si, n, "counter", func(w io.Writer) error {
				_, err := fmt.Fprintf(w, "%s%s %d\n", n, labels, v)
				return err
			}); err != nil {
				return err
			}
		}
		for name, v := range s.Gauges {
			n, v := promName(prefix, name), v
			if err := add(si, n, "gauge", func(w io.Writer) error {
				_, err := fmt.Fprintf(w, "%s%s %s\n", n, labels, promFloat(v))
				return err
			}); err != nil {
				return err
			}
		}
		for name, h := range s.Histograms {
			n, h := promName(prefix, name), h
			extraLabels := extraLabels
			if err := add(si, n, "histogram", func(w io.Writer) error {
				for _, b := range h.Buckets {
					le := promFloat(float64(b.Le))
					var err error
					if extraLabels == nil {
						_, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, le, b.N)
					} else {
						_, err = fmt.Fprintf(w, "%s_bucket%s %d\n", n,
							renderLabelsWith(extraLabels, "le", le), b.N)
					}
					if err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", n, labels, promFloat(h.Sum)); err != nil {
					return err
				}
				_, err := fmt.Fprintf(w, "%s_count%s %d\n", n, labels, h.Count)
				return err
			}); err != nil {
				return err
			}
		}
	}
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fams[n]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, e := range f.emit {
			if err := e(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// WritePromSnapshot renders a registry snapshot in exposition format
// 0.0.4. Families are emitted in sorted-name order, each preceded by
// its # TYPE line. extraLabels (may be nil) are added to every sample
// — the coordinator uses it to expose per-worker series.
func WritePromSnapshot(w io.Writer, prefix string, s RegistrySnapshot, extraLabels map[string]string) error {
	return WritePromSnapshots(w, prefix, []LabeledSnapshot{{Labels: extraLabels, Snap: s}})
}

// renderLabels renders a label set as `{k="v",...}` in sorted key
// order ("" when empty).
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	return renderLabelsWith(labels, "", "")
}

func renderLabelsWith(labels map[string]string, extraKey, extraVal string) string {
	keys := make([]string, 0, len(labels)+1)
	for k := range labels {
		keys = append(keys, k)
	}
	if extraKey != "" {
		keys = append(keys, extraKey)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		v := labels[k]
		if k == extraKey {
			v = extraVal
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(promQuote(v))
	}
	b.WriteByte('}')
	return b.String()
}

// promQuote renders a label value with the exposition escapes
// (backslash, double-quote, newline).
func promQuote(v string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// WriteProm renders the registry in exposition format 0.0.4.
func (r *Registry) WriteProm(w io.Writer) error {
	return WritePromSnapshot(w, PromPrefix, r.Snapshot(), nil)
}

// PromHandler serves reg (nil = the default registry) in exposition
// format at whatever path it is mounted on — conventionally /metrics.
func PromHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r := reg
		if r == nil {
			r = defaultRegistry
		}
		var b strings.Builder
		if err := r.WriteProm(&b); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", PromContentType)
		io.WriteString(w, b.String())
	})
}
