package expose

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"chameleon/internal/obs"
)

// WritePrometheus renders a registry snapshot in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, quality streams expanded into their derived estimator-health
// gauges, latency instruments as summaries carrying their p50/p90/p99/p999
// SLO quantiles in seconds, and the differ's counter rates as companion
// _per_second gauges. Metric names are namespaced and sanitized (every
// character outside [a-zA-Z0-9_:] becomes '_'), and families are emitted
// in sorted order so the output is deterministic for a given snapshot.
//
// Each metric name is emitted at most once: distinct registry names can
// sanitize or expand to the same exposition name (e.g. a gauge "a.b_c"
// next to a gauge "a.b.c", or a gauge shadowing a quality stream's
// derived suffixes), and the Prometheus text parser rejects a scrape that
// repeats a "# TYPE" line or a sample name. First family in emission
// order (counters, gauges, quality, latencies, rates) wins;
// later claims are dropped.
func WritePrometheus(w io.Writer, namespace string, s obs.Snapshot, rates map[string]float64) error {
	p := &promWriter{w: w, ns: namespace, seen: map[string]bool{}}

	for _, name := range sortedKeys(s.Counters) {
		if !p.family(name, "counter") {
			continue
		}
		p.sample(p.name(name), "", float64(s.Counters[name]))
	}
	for _, name := range sortedKeys(s.Gauges) {
		if !p.family(name, "gauge") {
			continue
		}
		p.sample(p.name(name), "", s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Quality) {
		q := s.Quality[name]
		base := p.name(name)
		for _, part := range []struct {
			suffix string
			value  float64
		}{
			{"_count", float64(q.Count)},
			{"_mean", q.Mean},
			{"_stderr", q.StdErr},
			{"_ci95_lo", q.CI95Lo},
			{"_ci95_hi", q.CI95Hi},
			{"_rel_stderr", q.RelStdErr},
		} {
			if !p.claim(base + part.suffix) {
				continue
			}
			if p.err == nil {
				_, p.err = fmt.Fprintf(p.w, "# TYPE %s%s gauge\n", base, part.suffix)
			}
			p.sample(base+part.suffix, "", part.value)
		}
	}
	for _, name := range sortedKeys(s.Latencies) {
		l := s.Latencies[name]
		base := p.name(name)
		if !p.claimAll(base, base+"_sum", base+"_count") {
			continue
		}
		if p.err == nil {
			_, p.err = fmt.Fprintf(p.w, "# TYPE %s summary\n", base)
		}
		// Latencies record nanoseconds; the exposition follows the
		// Prometheus base-unit convention and publishes seconds.
		for _, qv := range []struct {
			q  string
			ns int64
		}{
			{"0.5", l.P50NS}, {"0.9", l.P90NS}, {"0.99", l.P99NS}, {"0.999", l.P999NS},
		} {
			p.sample(base, `quantile="`+qv.q+`"`, float64(qv.ns)/1e9)
		}
		p.sample(base+"_sum", "", float64(l.SumNS)/1e9)
		p.sample(base+"_count", "", float64(l.Count))
	}
	for _, name := range sortedKeys(rates) {
		rateName := p.name(name) + "_per_second"
		if !p.claim(rateName) {
			continue
		}
		if p.err == nil {
			_, p.err = fmt.Fprintf(p.w, "# TYPE %s gauge\n", rateName)
		}
		p.sample(rateName, "", rates[name])
	}
	return p.err
}

type promWriter struct {
	w    io.Writer
	ns   string
	seen map[string]bool
	err  error
}

// claim reserves an exposition metric name, returning false if an earlier
// family already emitted it.
func (p *promWriter) claim(name string) bool {
	if p.seen[name] {
		return false
	}
	p.seen[name] = true
	return true
}

// claimAll reserves a set of names atomically: either every name was free
// and is now claimed, or none is touched.
func (p *promWriter) claimAll(names ...string) bool {
	for _, n := range names {
		if p.seen[n] {
			return false
		}
	}
	for _, n := range names {
		p.seen[n] = true
	}
	return true
}

// name builds the namespaced, sanitized metric name.
func (p *promWriter) name(raw string) string {
	return p.ns + "_" + sanitizeMetricName(raw)
}

// family claims the sanitized name and writes its # TYPE line, returning
// false (emitting nothing) when the name was already taken.
func (p *promWriter) family(raw, typ string) bool {
	name := p.name(raw)
	if !p.claim(name) {
		return false
	}
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, "# TYPE %s %s\n", name, typ)
	}
	return true
}

func (p *promWriter) sample(name, label string, v float64) {
	if p.err != nil {
		return
	}
	if label != "" {
		_, p.err = fmt.Fprintf(p.w, "%s{%s} %s\n", name, label, formatValue(v))
		return
	}
	_, p.err = fmt.Fprintf(p.w, "%s %s\n", name, formatValue(v))
}

// formatValue renders a sample value; strconv's 'g' yields "+Inf", "-Inf"
// and "NaN" spellings, which the text format accepts verbatim.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sanitizeMetricName maps a dotted registry name onto the Prometheus
// metric-name alphabet [a-zA-Z0-9_:], replacing every other byte with '_'.
// Registry names never start with a digit (they are dotted identifiers),
// so no leading-digit escape is needed.
func sanitizeMetricName(name string) string {
	out := []byte(name)
	for i := 0; i < len(out); i++ {
		c := out[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_', c == ':':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
