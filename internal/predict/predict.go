// Package predict implements the arrival predictor behind pre-warming — the
// second orthogonal mechanism the paper names in §VI-A: "TOSS can load the
// VM before the predicted function execution". The policy follows the
// hybrid histogram idea of "Serverless in the Wild" (Shahrad et al.,
// ATC'20): per function, track the inter-arrival time distribution; when it
// is regular enough (enough samples, low dispersion), predict the next
// arrival and a pre-warm window around it; otherwise admit ignorance.
package predict

import (
	"math"
	"sort"

	"toss/internal/simtime"
)

// The predictor is conservative: it only fires for clearly regular
// (fixed-period or steady high-rate) functions. It needs minSamples observed
// inter-arrival times (IATs) before predicting and a coefficient of
// variation (stddev/mean) of at most maxCV; the pre-warm window spans
// windowFraction of the predicted IAT on each side (at least one
// millisecond); and it remembers the last history IATs per function.
const (
	minSamples     = 4
	maxCV          = 0.5
	windowFraction = 0.25
	history        = 64
)

// Prediction is a forecast next arrival with a pre-warm window.
type Prediction struct {
	// At is the predicted arrival instant.
	At simtime.Duration
	// WindowStart is when a pre-warmed VM should be ready.
	WindowStart simtime.Duration
	// WindowEnd is when an unused pre-warmed VM may be reclaimed.
	WindowEnd simtime.Duration
}

// Predictor tracks per-function arrival history.
type Predictor struct {
	fns map[string]*arrivals
}

// arrivals is one function's arrival history.
type arrivals struct {
	last simtime.Duration
	seen bool
	iats []simtime.Duration
}

// New returns a predictor that has seen no arrivals.
func New() *Predictor {
	return &Predictor{fns: make(map[string]*arrivals)}
}

// Observe records an arrival of fn at virtual time `at`. Out-of-order
// observations (at earlier than the last) are ignored.
func (p *Predictor) Observe(fn string, at simtime.Duration) {
	h, ok := p.fns[fn]
	if !ok {
		h = &arrivals{}
		p.fns[fn] = h
	}
	if h.seen {
		if at <= h.last {
			return
		}
		h.iats = append(h.iats, at-h.last)
		if len(h.iats) > history {
			h.iats = h.iats[len(h.iats)-history:]
		}
	}
	h.last = at
	h.seen = true
}

// Next predicts fn's next arrival. ok is false when the function is
// unknown, under-sampled, or too irregular.
func (p *Predictor) Next(fn string) (Prediction, bool) {
	h, ok := p.fns[fn]
	if !ok || len(h.iats) < minSamples {
		return Prediction{}, false
	}
	mean, std := meanStd(h.iats)
	if mean <= 0 || std/mean > maxCV {
		return Prediction{}, false
	}
	med := median(h.iats)
	at := h.last + med
	margin := simtime.Duration(float64(med) * windowFraction)
	if margin < simtime.Millisecond {
		margin = simtime.Millisecond
	}
	start := at - margin
	if start < h.last {
		start = h.last
	}
	return Prediction{At: at, WindowStart: start, WindowEnd: at + margin}, true
}

// meanStd computes the mean and population standard deviation.
func meanStd(ds []simtime.Duration) (float64, float64) {
	var sum float64
	for _, d := range ds {
		sum += float64(d)
	}
	mean := sum / float64(len(ds))
	var ss float64
	for _, d := range ds {
		diff := float64(d) - mean
		ss += diff * diff
	}
	return mean, math.Sqrt(ss / float64(len(ds)))
}

// median returns the middle inter-arrival time.
func median(ds []simtime.Duration) simtime.Duration {
	s := append([]simtime.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
