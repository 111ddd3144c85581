package predict

import (
	"testing"
	"testing/quick"

	"toss/internal/simtime"
)

func TestUnknownFunctionNoPrediction(t *testing.T) {
	p := New()
	if _, ok := p.Next("nope"); ok {
		t.Error("prediction for unknown function")
	}
}

func TestUnderSampledNoPrediction(t *testing.T) {
	p := New()
	p.Observe("f", 1*simtime.Second)
	p.Observe("f", 2*simtime.Second)
	// Only 1 IAT recorded; minSamples is 4.
	if _, ok := p.Next("f"); ok {
		t.Error("prediction with too few samples")
	}
	if p.Samples("f") != 1 {
		t.Errorf("Samples = %d", p.Samples("f"))
	}
	if p.Samples("other") != 0 {
		t.Error("samples for unknown fn")
	}
}

func TestPeriodicFunctionPredicted(t *testing.T) {
	p := New()
	period := 10 * simtime.Second
	var last simtime.Duration
	for i := 1; i <= 6; i++ {
		last = simtime.Duration(i) * period
		p.Observe("cron", last)
	}
	pred, ok := p.Next("cron")
	if !ok {
		t.Fatal("no prediction for perfectly periodic function")
	}
	if pred.At != last+period {
		t.Errorf("predicted %v, want %v", pred.At, last+period)
	}
	if pred.WindowStart >= pred.At || pred.WindowEnd <= pred.At {
		t.Errorf("window [%v, %v] does not bracket %v", pred.WindowStart, pred.WindowEnd, pred.At)
	}
	if pred.WindowStart < last {
		t.Errorf("window starts before the last arrival")
	}
}

func TestIrregularFunctionNotPredicted(t *testing.T) {
	p := New()
	// Wildly varying IATs: 1s, 100s, 2s, 400s, 1s...
	times := []simtime.Duration{1, 2, 102, 104, 504, 505, 905}
	for _, at := range times {
		p.Observe("spiky", at*simtime.Second)
	}
	if _, ok := p.Next("spiky"); ok {
		t.Error("prediction for highly irregular function")
	}
}

func TestOutOfOrderObservationsIgnored(t *testing.T) {
	p := New()
	p.Observe("f", 10*simtime.Second)
	p.Observe("f", 5*simtime.Second) // ignored
	if p.Samples("f") != 0 {
		t.Errorf("out-of-order observation recorded: %d samples", p.Samples("f"))
	}
	p.Observe("f", 10*simtime.Second) // equal: also ignored
	if p.Samples("f") != 0 {
		t.Error("duplicate timestamp recorded")
	}
}

func TestHistoryBounded(t *testing.T) {
	p := New()
	for i := 1; i <= 2*history; i++ {
		p.Observe("f", simtime.Duration(i)*simtime.Second)
	}
	if got := p.Samples("f"); got != history {
		t.Errorf("history = %d, want %d", got, history)
	}
}

func TestDriftingPeriodFollowsMedian(t *testing.T) {
	p := New()
	// Period shifts from 10s to 12s; median over the window follows.
	at := simtime.Duration(0)
	for i := 0; i < 4; i++ {
		at += 10 * simtime.Second
		p.Observe("f", at)
	}
	for i := 0; i < 8; i++ {
		at += 12 * simtime.Second
		p.Observe("f", at)
	}
	pred, ok := p.Next("f")
	if !ok {
		t.Fatal("no prediction")
	}
	want := at + 12*simtime.Second
	if pred.At != want {
		t.Errorf("predicted %v, want %v (median of drifted window)", pred.At, want)
	}
}

// Property: any emitted prediction is in the future of the last observation
// and its window brackets the prediction.
func TestPredictionWindowProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		p := New()
		at := simtime.Duration(0)
		for _, gap := range raw {
			at += simtime.Duration(gap)*simtime.Millisecond + simtime.Millisecond
			p.Observe("f", at)
		}
		pred, ok := p.Next("f")
		if !ok {
			return true
		}
		return pred.At > at && pred.WindowStart <= pred.At &&
			pred.WindowEnd >= pred.At && pred.WindowStart >= at
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Samples returns how many inter-arrival times are recorded for fn.
func (p *Predictor) Samples(fn string) int {
	if h, ok := p.fns[fn]; ok {
		return len(h.iats)
	}
	return 0
}
