// Package stats provides the small statistical utilities the experiments
// need: integer histograms (for the Figure 12 CDFs), geometric means (the
// paper's aggregate for speedups), and quantiles.
package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Hist is a histogram over small non-negative integers.
type Hist struct {
	Buckets  []uint64 // Buckets[i] counts samples equal to i
	Overflow uint64   // samples >= len(Buckets)
	N        uint64
	Sum      float64
}

// plainHist is Hist without its methods, so encoding/json decodes it by
// reflection: the decoder Hist.UnmarshalJSON falls back to.
type plainHist Hist

// UnmarshalJSON decodes a Hist. It parses the layout encoding/json writes
// for one, {"Buckets":[…] or null,"Overflow":n,"N":n,"Sum":f}, directly:
// decoding a record's two dense histograms by reflection was most of the
// cost of decoding the record. Any other input goes to encoding/json, so
// accepted inputs, decoded values and errors are encoding/json's own.
func (h *Hist) UnmarshalJSON(data []byte) error {
	if d, ok := parseHist(data); ok {
		*h = d
		return nil
	}
	return json.Unmarshal(data, (*plainHist)(h))
}

// parseHist parses data if it is exactly encoding/json's encoding of a
// Hist, and reports false for anything else.
func parseHist(data []byte) (h Hist, ok bool) {
	rest, ok := bytes.CutPrefix(data, []byte(`{"Buckets":`))
	if !ok {
		return h, false
	}
	if rest, ok = bytes.CutPrefix(rest, []byte("null")); !ok {
		if h.Buckets, rest, ok = parseBuckets(rest); !ok {
			return h, false
		}
	}
	if h.Overflow, rest, ok = parseField(rest, `,"Overflow":`); !ok {
		return h, false
	}
	if h.N, rest, ok = parseField(rest, `,"N":`); !ok {
		return h, false
	}
	// Sum is the rest up to the closing brace. A valid JSON value that
	// ParseFloat accepts is a JSON number, which ParseFloat reads exactly
	// as encoding/json does.
	rest, ok = bytes.CutPrefix(rest, []byte(`,"Sum":`))
	sum, closed := bytes.CutSuffix(rest, []byte("}"))
	if !ok || !closed || !json.Valid(sum) {
		return h, false
	}
	var err error
	if h.Sum, err = strconv.ParseFloat(string(sum), 64); err != nil {
		return h, false
	}
	return h, true
}

// parseBuckets parses the JSON array of unsigned integers at the start of
// b and returns it with the rest of b. "[]" is an empty, non-nil slice,
// as encoding/json decodes it.
func parseBuckets(b []byte) (buckets []uint64, rest []byte, ok bool) {
	list, ok := bytes.CutPrefix(b, []byte("["))
	end := bytes.IndexByte(list, ']')
	if !ok || end < 0 {
		return nil, b, false
	}
	list, rest = list[:end], list[end+1:]
	buckets = make([]uint64, 0, bytes.Count(list, []byte(","))+1)
	for len(list) > 0 {
		v, n, ok := parseUint(list)
		if !ok {
			return nil, b, false
		}
		buckets, list = append(buckets, v), list[n:]
		if len(list) > 0 {
			// A separator must lead to another element: "[1,]" fails.
			if list[0] != ',' || len(list) == 1 {
				return nil, b, false
			}
			list = list[1:]
		}
	}
	return buckets, rest, true
}

// parseField parses key, then the JSON unsigned integer after it.
func parseField(b []byte, key string) (v uint64, rest []byte, ok bool) {
	if b, ok = bytes.CutPrefix(b, []byte(key)); !ok {
		return 0, nil, false
	}
	v, n, ok := parseUint(b)
	return v, b[n:], ok
}

// parseUint parses the JSON unsigned integer at the start of b and
// returns its length; it fails past uint64. A leading 0 ends the number,
// so "01" fails at the caller's delimiter check.
func parseUint(b []byte) (v uint64, n int, ok bool) {
	if len(b) == 0 || b[0] < '0' || b[0] > '9' {
		return 0, 0, false
	}
	if b[0] == '0' {
		return 0, 1, true
	}
	for ; n < len(b) && '0' <= b[n] && b[n] <= '9'; n++ {
		d := uint64(b[n] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, 0, false
		}
		v = v*10 + d
	}
	return v, n, true
}

// NewHist returns a histogram covering values [0, max].
func NewHist(max int) *Hist {
	return &Hist{Buckets: make([]uint64, max+1)}
}

// Clone returns a deep copy of h, sharing no storage with it.
func (h *Hist) Clone() *Hist {
	cp := *h
	cp.Buckets = append([]uint64(nil), h.Buckets...)
	return &cp
}

// Add records one sample.
func (h *Hist) Add(v int) {
	h.N++
	h.Sum += float64(v)
	if v < 0 {
		v = 0
	}
	if v < len(h.Buckets) {
		h.Buckets[v]++
	} else {
		h.Overflow++
	}
}

// Mean returns the sample mean, or 0 with no samples.
func (h *Hist) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// CDF returns the cumulative fraction of samples <= i for each bucket i.
func (h *Hist) CDF() []float64 {
	out := make([]float64, len(h.Buckets))
	if h.N == 0 {
		return out
	}
	var acc uint64
	for i, c := range h.Buckets {
		acc += c
		out[i] = float64(acc) / float64(h.N)
	}
	return out
}

// Quantile returns the smallest recorded value v with CDF(v) >= q;
// Overflow samples map to len(Buckets). Edge cases are pinned down:
// q <= 0 returns the smallest recorded value (not bucket 0), q >= 1 the
// largest, and an empty histogram returns 0 for every q.
func (h *Hist) Quantile(q float64) int {
	if h.N == 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.N)
	if target < 1 {
		target = 1 // q <= 0 (or q below 1/N) selects the minimum sample
	}
	var acc float64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		acc += float64(c)
		if acc >= target {
			return i
		}
	}
	return len(h.Buckets)
}

// Merge adds o's samples into h. Histograms with different bucket counts
// do not merge meaningfully (the same value would sit in a bucket in one
// and in Overflow in the other), so a mismatch is an explicit error and
// h is left unchanged.
func (h *Hist) Merge(o *Hist) error {
	if len(h.Buckets) != len(o.Buckets) {
		return fmt.Errorf("stats: merging histograms with %d and %d buckets", len(h.Buckets), len(o.Buckets))
	}
	for i, c := range o.Buckets {
		h.Buckets[i] += c
	}
	h.Overflow += o.Overflow
	h.N += o.N
	h.Sum += o.Sum
	return nil
}

// tCrit95 holds two-sided 95% Student-t critical values by degrees of
// freedom (index = df) for the small-sample range Monte-Carlo seed sweeps
// actually use. Larger df fall through to selected rows and then to the
// normal limit 1.96.
var tCrit95 = [...]float64{
	0, // df 0 unused
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCrit95Coarse extends the table to large samples: the critical value
// for the largest tabulated df not exceeding the actual df.
var tCrit95Coarse = []struct {
	df int
	t  float64
}{
	{40, 2.021}, {50, 2.009}, {60, 2.000}, {80, 1.990}, {100, 1.984}, {120, 1.980},
}

// MeanCI returns the sample mean of xs and the half-width of its two-sided
// 95% confidence interval under the Student-t distribution — the standard
// summary for a Monte-Carlo seed sweep's per-cell metric. With fewer than
// two samples the half-width is 0 (no spread estimate exists); the t
// critical value is exact for df ≤ 30, stepwise through df 120, and the
// normal-limit 1.96 beyond.
func MeanCI(xs []float64) (mean, half float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	df := n - 1
	var t float64
	switch {
	case df < len(tCrit95):
		t = tCrit95[df]
	case df > 120:
		t = 1.96
	default:
		t = tCrit95[len(tCrit95)-1] // largest tabulated df ≤ actual
		for _, row := range tCrit95Coarse {
			if df >= row.df {
				t = row.t
			}
		}
	}
	return mean, t * sd / math.Sqrt(float64(n))
}

// Geomean returns the geometric mean of xs (which must be positive), or 0
// for an empty slice.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
