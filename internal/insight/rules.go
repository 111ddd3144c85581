package insight

import (
	"encoding/json"
	"fmt"
	"sort"

	"toss/internal/emit"
	"toss/internal/simtime"
	"toss/internal/xray"
)

// Op compares an observed value against a rule limit.
type Op int

// Comparison directions for threshold rules.
const (
	// Above fires when the value exceeds the limit.
	Above Op = iota
	// Below fires when the value drops under the limit.
	Below
)

// String returns ">" or "<".
func (o Op) String() string {
	if o == Below {
		return "<"
	}
	return ">"
}

// violated reports whether v breaks the limit under o.
func (o Op) violated(v, limit float64) bool {
	if o == Below {
		return v < limit
	}
	return v > limit
}

// Kind selects a rule's evaluation strategy.
type Kind int

// Rule kinds.
const (
	// Threshold fires when the watched series violates Limit for at least
	// For of sustained virtual time.
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

// Rule is one alerting rule. Threshold watches a Store series by name
// (values arrive via Engine.Observe); Burn watches a latency stream (values
// arrive via Engine.ObserveLatency).
type Rule struct {
	// Name identifies the rule in the alert log.
	Name string
	// Kind selects the evaluation strategy.
	Kind Kind
	// Series is the watched series (Threshold) or latency stream (Burn)
	// name.
	Series string

	// Op and Limit define the Threshold rule's violation.
	Op    Op
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

	// Burn windows.
	fast, slow xray.BurnWindow
}

// Engine evaluates rules purely in virtual time. Feed it with Observe (for
// threshold series) and ObserveLatency (for burn streams); every
// observation advances the state machines and may append fire/resolve edges
// to the alert log. A nil *Engine no-ops every method.
type Engine struct {
	store  *Store
	states []*ruleState
	// byStream maps a series/stream name to the rules watching it, in
	// registration order.
	byStream map[string][]*ruleState
	log      []Alert
	blamer   Blamer
	evals    int64
}

// NewEngine builds an engine over the given store (nil creates a private
// default store) evaluating the given rules.
func NewEngine(store *Store, rules ...Rule) *Engine {
	if store == nil {
		store = NewStore(Config{})
	}
	e := &Engine{store: store, byStream: make(map[string][]*ruleState)}
	for _, r := range rules {
		st := &ruleState{rule: r}
		e.states = append(e.states, st)
		e.byStream[r.Series] = append(e.byStream[r.Series], st)
	}
	return e
}

// SetBlamer attaches the attribution callback consulted at fire time.
func (e *Engine) SetBlamer(b Blamer) {
	if e != nil {
		e.blamer = b
	}
}

// Store returns the engine's backing time-series store.
func (e *Engine) Store() *Store {
	if e == nil {
		return nil
	}
	return e.store
}

// Observe records a value on a named series: it lands in the store and
// drives every threshold rule watching that series. Feed observations in
// nondecreasing virtual time per series for deterministic edges.
func (e *Engine) Observe(name string, at simtime.Duration, v float64) {
	if e == nil {
		return
	}
	e.store.Observe(name, at, v)
	for _, st := range e.byStream[name] {
		if st.rule.Kind == Threshold {
			e.evals++
			e.step(st, at, v, st.rule.Op.violated(v, st.rule.Limit))
		}
	}
}

// ObserveLatency records one latency sample on a burn stream: every Burn
// rule watching the stream updates both windows and re-evaluates, and
// threshold rules watching the same stream evaluate on the value in
// milliseconds. The sample is also stored as a series point (milliseconds)
// under the stream name so dumps carry the shape the rules saw.
func (e *Engine) ObserveLatency(stream string, at simtime.Duration, latency simtime.Duration) {
	if e == nil {
		return
	}
	ms := float64(latency) / float64(simtime.Millisecond)
	e.store.Observe(stream, at, ms)
	for _, st := range e.byStream[stream] {
		e.evals++
		if st.rule.Kind == Threshold {
			e.step(st, at, ms, st.rule.Op.violated(ms, st.rule.Limit))
			continue
		}
		violated := latency > st.rule.Objective
		st.fast.Record(at, st.rule.FastWindow, violated)
		st.slow.Record(at, st.rule.SlowWindow, violated)
		ff, sf := st.fast.Fraction(), st.slow.Fraction()
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

// Alerts returns the fire/resolve edges in feed order (a copy, non-nil
// even when empty, so a dump spells an empty list []).
func (e *Engine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	return append([]Alert{}, e.log...)
}

// Firing returns the names of rules currently firing, sorted (non-nil even
// when empty, as Alerts).
func (e *Engine) Firing() []string {
	if e == nil {
		return nil
	}
	out := []string{}
	for _, st := range e.states {
		if st.firing {
			out = append(out, st.rule.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Evals returns the number of rule evaluations performed.
func (e *Engine) Evals() int64 {
	if e == nil {
		return 0
	}
	return e.evals
}

// Result snapshots the engine into the exportable per-cell block: series
// summaries, the alert log, and the rules still firing at the end. A nil
// engine's block holds empty lists, never nil ones.
func (e *Engine) Result(cell string) Result {
	if e == nil {
		return Result{Cell: cell, Series: []SeriesSummary{}, Alerts: []Alert{}, Firing: []string{}}
	}
	return Result{
		Cell:   cell,
		Series: e.store.Summaries(),
		Alerts: e.Alerts(),
		Firing: e.Firing(),
		Evals:  e.evals,
	}
}
