package insight

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"toss/internal/emit"
	"toss/internal/simtime"
	"toss/internal/xray"
)

// Kind selects a rule's evaluation strategy.
type Kind int

// Rule kinds.
const (
	// Threshold fires when the watched series stays above Limit for at
	// least For of sustained virtual time.
	Threshold Kind = iota
	// Burn is a Google-SRE multi-window multi-burn-rate SLO rule over a
	// latency stream: an observation violates when latency > Objective;
	// the rule fires when the violation fraction exceeds FastBurn over the
	// trailing FastWindow AND SlowBurn over the trailing SlowWindow, and
	// resolves when the fast window recovers.
	Burn
)

// String names the kind for logs and dumps.
func (k Kind) String() string {
	switch k {
	case Burn:
		return "burn"
	default:
		return "threshold"
	}
}

// Rule is one alerting rule. Threshold watches a series by name (values
// arrive via Engine.Observe); Burn watches a latency stream (values arrive
// via Engine.ObserveLatency).
type Rule struct {
	// Name identifies the rule in the alert log.
	Name string
	// Kind selects the evaluation strategy.
	Kind Kind
	// Series is the watched series (Threshold) or latency stream (Burn)
	// name.
	Series string

	// Limit is the Threshold rule's bound: a value above it violates.
	Limit float64
	// For is how long a violation must be sustained before the rule fires
	// (0 fires on the first violating observation).
	For simtime.Duration

	// Objective is the Burn rule's per-observation latency SLO.
	Objective simtime.Duration
	// FastWindow/SlowWindow are the Burn rule's two trailing windows.
	FastWindow, SlowWindow simtime.Duration
	// FastBurn/SlowBurn are the violation fractions (0..1) both windows
	// must exceed for the rule to fire.
	FastBurn, SlowBurn float64
}

// BurnRule builds the standard multi-window multi-burn-rate SLO rule: fast
// window catches an ongoing burn, slow window confirms it is significant.
func BurnRule(name, stream string, objective, fast, slow simtime.Duration, fastBurn, slowBurn float64) Rule {
	return Rule{
		Name:       name,
		Kind:       Burn,
		Series:     stream,
		Objective:  objective,
		FastWindow: fast,
		SlowWindow: slow,
		FastBurn:   fastBurn,
		SlowBurn:   slowBurn,
	}
}

// Alert is one fire or resolve edge in the deterministic alert log.
type Alert struct {
	// At is the virtual time of the edge.
	At simtime.Duration `json:"at_ns"`
	// Rule names the rule that produced the edge.
	Rule string `json:"rule"`
	// Firing is true for a fire edge, false for a resolve edge.
	Firing Edge `json:"state"`
	// Value is the observation (or burn fraction / rate) at the edge.
	Value emit.Float `json:"value"`
	// Blame names the xray segment attribution attached at fire time
	// (empty when no blamer is configured or on resolve edges).
	Blame string `json:"blame,omitempty"`
}

// Edge is an alert edge's direction: true fires, false resolves. A dump
// spells it "fire" or "resolve", and reads any other string as a resolve.
type Edge bool

// MarshalJSON implements json.Marshaler.
func (e Edge) MarshalJSON() ([]byte, error) {
	if e {
		return []byte(`"fire"`), nil
	}
	return []byte(`"resolve"`), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (e *Edge) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	*e = s == "fire"
	return nil
}

// State renders the edge direction for logs.
func (a Alert) State() string {
	if a.Firing {
		return "FIRE"
	}
	return "RESOLVE"
}

// Blamer attributes a firing rule to a cause; BlameTop adapts an xray
// report into one.
type Blamer func(rule string, at simtime.Duration) string

// BlameTop returns a Blamer naming the hottest segment of an xray report —
// "function seg=segment share=NN.N%" — so every fire edge carries the
// attribution answer to "where is the time going right now".
func BlameTop(rep *xray.Report) Blamer {
	if rep == nil {
		return nil
	}
	top := rep.TopSegments(1)
	if len(top) == 0 {
		return nil
	}
	blame := fmt.Sprintf("%s seg=%s share=%.1f%%", top[0].Label, top[0].Segment, top[0].Share*100)
	return func(string, simtime.Duration) string { return blame }
}

// ruleState is one rule's evaluation state machine.
type ruleState struct {
	rule Rule

	pending      bool
	pendingSince simtime.Duration
	firing       bool

	// Burn rules: the two windows and the run-long account.
	fast, slow BurnWindow
	burn       BurnStats
}

// Engine evaluates rules purely in virtual time and keeps every series'
// running summary. Feed it with Observe (for threshold series) and
// ObserveLatency (for burn streams); every observation folds into its
// series and advances the state machines watching it, and may append
// fire/resolve edges to the alert log. The engine's lock guards the series,
// so goroutines may feed series no rule watches concurrently; rule state
// and the alert log belong to the one goroutine feeding the watched
// streams, and byte-stable output requires a deterministic feed order
// (every feed here replays a completed run serially). A nil *Engine no-ops
// every method.
type Engine struct {
	mu sync.Mutex
	// series maps a series/stream name to its summary and the rules
	// watching it; mu guards the map and the summaries.
	series map[string]*series
	states []*ruleState
	log    []Alert
	blamer Blamer
	evals  int64
}

// NewEngine builds an engine evaluating the given rules.
func NewEngine(rules ...Rule) *Engine {
	e := &Engine{series: make(map[string]*series)}
	for _, r := range rules {
		st := &ruleState{rule: r, burn: BurnStats{Objective: r.Objective, Window: r.FastWindow}}
		e.states = append(e.states, st)
		s := e.lookup(r.Series)
		s.rules = append(s.rules, st)
	}
	return e
}

// lookup returns the named series, adding an empty one when absent.
func (e *Engine) lookup(name string) *series {
	s := e.series[name]
	if s == nil {
		s = &series{}
		e.series[name] = s
	}
	return s
}

// fold folds v at virtual time at into the named series under the lock and
// returns the series, whose rules are fixed at construction.
func (e *Engine) fold(name string, at simtime.Duration, v float64) *series {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.lookup(name)
	s.observe(at, v)
	return s
}

// SetBlamer attaches the attribution callback consulted at fire time.
func (e *Engine) SetBlamer(b Blamer) {
	if e != nil {
		e.blamer = b
	}
}

// Observe records a value on a named series: it folds into the series'
// summary and drives every threshold rule watching that series. Feed
// observations in nondecreasing virtual time per series for deterministic
// edges.
func (e *Engine) Observe(name string, at simtime.Duration, v float64) {
	if e == nil {
		return
	}
	for _, st := range e.fold(name, at, v).rules {
		if st.rule.Kind == Threshold {
			e.evals++
			e.step(st, at, v, v > st.rule.Limit)
		}
	}
}

// ObserveLatency records one latency sample on a burn stream: every Burn
// rule watching the stream updates both windows and its BurnStats and
// re-evaluates, and threshold rules watching the same stream evaluate on
// the value in milliseconds. The sample also folds into the stream's series
// summary (milliseconds) so dumps carry the shape the rules saw.
func (e *Engine) ObserveLatency(stream string, at simtime.Duration, latency simtime.Duration) {
	if e == nil {
		return
	}
	ms := float64(latency) / float64(simtime.Millisecond)
	for _, st := range e.fold(stream, at, ms).rules {
		e.evals++
		if st.rule.Kind == Threshold {
			e.step(st, at, ms, ms > st.rule.Limit)
			continue
		}
		violated := latency > st.rule.Objective
		st.fast.Record(at, st.rule.FastWindow, violated)
		st.slow.Record(at, st.rule.SlowWindow, violated)
		ff, sf := st.fast.Fraction(), st.slow.Fraction()
		st.burn.observe(at, violated, ff)
		if !st.firing {
			if ff >= st.rule.FastBurn && sf >= st.rule.SlowBurn {
				st.firing = true
				e.fire(st, at, ff)
			}
		} else if ff < st.rule.FastBurn {
			st.firing = false
			e.log = append(e.log, Alert{At: at, Rule: st.rule.Name, Firing: false, Value: emit.Float(ff)})
		}
	}
}

// step runs the threshold rules' sustained-For state machine.
func (e *Engine) step(st *ruleState, at simtime.Duration, value float64, violated bool) {
	if violated {
		if !st.pending {
			st.pending = true
			st.pendingSince = at
		}
		if !st.firing && at-st.pendingSince >= st.rule.For {
			st.firing = true
			e.fire(st, at, value)
		}
		return
	}
	st.pending = false
	if st.firing {
		st.firing = false
		e.log = append(e.log, Alert{At: at, Rule: st.rule.Name, Firing: false, Value: emit.Float(value)})
	}
}

// fire appends a fire edge, consulting the blamer for attribution.
func (e *Engine) fire(st *ruleState, at simtime.Duration, value float64) {
	a := Alert{At: at, Rule: st.rule.Name, Firing: true, Value: emit.Float(value)}
	if e.blamer != nil {
		a.Blame = e.blamer(st.rule.Name, at)
	}
	e.log = append(e.log, a)
}

// Result snapshots the engine into the exportable per-cell block: series
// summaries, the alert log in feed order, and the sorted names of the rules
// still firing at the end. The lists are never nil, so a dump spells an
// empty one [].
func (e *Engine) Result(cell string) Result {
	if e == nil {
		return Result{Cell: cell, Series: []SeriesSummary{}, Alerts: []Alert{}, Firing: []string{}}
	}
	firing := []string{}
	for _, st := range e.states {
		if st.firing {
			firing = append(firing, st.rule.Name)
		}
	}
	sort.Strings(firing)
	return Result{
		Cell:   cell,
		Series: e.summaries(),
		Alerts: append([]Alert{}, e.log...),
		Firing: firing,
		Evals:  e.evals,
	}
}
