package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// PromName converts a dotted metric name ("obs.trace.decide_ns") to
// Prometheus exposition form ("obs_trace_decide_ns"): every character
// outside [a-zA-Z0-9_:] becomes '_', and a leading digit gains a '_'
// prefix.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a sample value per the exposition format (Inf/NaN have
// dedicated spellings; everything else is shortest-round-trip).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders a registry snapshot in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, sketches as histograms (cumulative _bucket series at the upper
// edges of the sketch's non-empty buckets, then le="+Inf", _sum and
// _count). Metric families are sorted by name so output is stable.
func WritePrometheus(w io.Writer, s Snapshot) error {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := PromName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name]); err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := PromName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", pn, pn, promFloat(s.Gauges[name])); err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range s.Sketches {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sk := s.Sketches[name]
		pn := PromName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		if err := sk.cumulative(func(le float64, cum int64) error {
			_, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, promFloat(le), cum)
			return err
		}); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			pn, sk.Count(), pn, promFloat(sk.Sum()), pn, sk.Count()); err != nil {
			return err
		}
	}
	return nil
}
