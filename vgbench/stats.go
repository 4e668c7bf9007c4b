package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses when fewer than minBeyond samples lie beyond the rank, because
// such a tail figure is set by a handful of requests.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, want at least %d",
			100*p, n, n-rank, minBeyond)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// median is the middle of xs (the mean of the two middles for even n),
// or 0 for no samples. Per-layer figures use it; they carry their count.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics, checking every name and unit as it goes.
type report struct {
	metrics map[string]metric
	err     error
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric; a bad name, unit or non-finite value, or a name
// used twice, makes the report invalid.
func (r *report) set(name string, value float64, unit string) {
	switch {
	case r.err != nil:
	case !validName(name):
		r.err = fmt.Errorf("bad metric name %q", name)
	case !validUnit(unit):
		r.err = fmt.Errorf("bad unit %q for %s", unit, name)
	case math.IsNaN(value) || math.IsInf(value, 0):
		r.err = fmt.Errorf("metric %s is %v", name, value)
	default:
		if _, dup := r.metrics[name]; dup {
			r.err = fmt.Errorf("metric %s set twice", name)
			return
		}
		r.metrics[name] = metric{Value: value, Unit: unit}
	}
}

// setPercentile records the p-quantile of xs, or marks the report
// invalid when the sample cannot support it.
func (r *report) setPercentile(name string, xs []float64, p float64, unit string) {
	v, err := percentile(xs, p)
	if err != nil {
		if r.err == nil {
			r.err = fmt.Errorf("%s: %w", name, err)
		}
		return
	}
	r.set(name, v, unit)
}

// setMedian records the median of xs with its sample count as <name>_n.
// name must end in _ms or similar; the count replaces that suffix.
func (r *report) setMedian(name string, xs []float64, unit string) {
	r.set(name, median(xs), unit)
	r.set(countName(name), float64(len(xs)), "count")
}

// countName maps "core.verify_ms" to "core.verify_n".
func countName(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '_' {
			return name[:i] + "_n"
		}
	}
	return name + "_n"
}

// validName reports whether s is a metric or workload name: a letter or
// digit, then at most 63 more letters, digits, '_', '.' or '-'.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 || !isAlnum(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if c := s[i]; !isAlnum(c) && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// validUnit reports whether s is a unit: 1 to 16 letters, digits, '_',
// '/', '%', '.' or '-'.
func validUnit(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; !isAlnum(c) && c != '_' && c != '/' && c != '%' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
