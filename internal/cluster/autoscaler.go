package cluster

import (
	"fmt"

	"toss/internal/simtime"
)

// Autoscaler configures the virtual-time fleet autoscaler. Every Tick of
// virtual time it inspects two fleet-wide signals — mean core utilization
// since the last tick and the SLO burn fraction among completions since the
// last tick (the share of them over Config.SLO) — and grows the fleet when
// utilization tops utilHigh or the burn fraction tops burnHigh, or drains
// the least-loaded node when utilization is under utilLow and the burn
// fraction at most half burnHigh. Decisions depend only on virtual-time
// state, so they replay identically from the seed.
type Autoscaler struct {
	// Enabled turns the autoscaler on.
	Enabled bool
	// Tick is the evaluation period (default 5s of virtual time).
	Tick simtime.Duration
	// Min / Max bound the fleet size (defaults: initial size, 4x initial).
	Min, Max int
}

// The autoscaler's thresholds: the utilization above which it scales up and
// below which it starts a drain, and the per-tick SLO violation fraction
// that forces a scale up regardless of utilization (a burn fraction needs
// Config.SLO).
const (
	utilHigh = 0.80
	utilLow  = 0.25
	burnHigh = 0.10
)

// withDefaults fills zero fields relative to the initial fleet size.
func (a Autoscaler) withDefaults(initial int) Autoscaler {
	if !a.Enabled {
		return a
	}
	if a.Tick == 0 {
		a.Tick = 5 * simtime.Second
	}
	if a.Min == 0 {
		a.Min = initial
	}
	if a.Max == 0 {
		a.Max = 4 * initial
	}
	return a
}

// validate checks the autoscaler configuration.
func (a Autoscaler) validate(initial int) error {
	if !a.Enabled {
		return nil
	}
	if a.Tick <= 0 {
		return fmt.Errorf("cluster: non-positive autoscaler tick")
	}
	if a.Min < 1 || a.Max < a.Min {
		return fmt.Errorf("cluster: autoscaler bounds [%d, %d] invalid", a.Min, a.Max)
	}
	if initial < a.Min || initial > a.Max {
		return fmt.Errorf("cluster: initial fleet size %d outside autoscaler bounds [%d, %d]", initial, a.Min, a.Max)
	}
	return nil
}

// ScaleEvent is one autoscaler decision.
type ScaleEvent struct {
	At simtime.Duration
	// Action is "up" (node added) or "down" (node begins draining).
	Action string
	// Node names the added or draining node.
	Node string
	// Util and Burn are the signals at decision time.
	Util float64
	Burn float64
	// Fleet is the routable fleet size after the decision.
	Fleet int
}

// onScaleTick evaluates the fleet signals and resizes if warranted.
func (c *Cluster) onScaleTick() {
	// Retire drained nodes first: a draining node with nothing in flight
	// leaves the fleet (its cached state is discarded).
	retired := false
	for _, n := range c.nodes {
		if n.alive && n.draining && n.inflight() == 0 {
			n.alive = false
			retired = true
		}
	}
	if retired {
		c.rebuildTopo()
	}

	as := c.cfg.Autoscale
	routable := len(c.routableIdx)
	if routable == 0 {
		return
	}

	// Mean utilization since the last tick across routable cores.
	busyDelta := c.report.BusyCoreTime - c.lastBusy
	c.lastBusy = c.report.BusyCoreTime
	util := float64(busyDelta) / (float64(as.Tick) * float64(c.cfg.Cores) * float64(routable))

	// SLO burn fraction among completions since the last tick, as deltas
	// of the completion and violation counts (zero without an SLO).
	var burn float64
	total, bad := int64(c.report.Records.done), c.violations
	if d := total - c.lastTotal; d > 0 {
		burn = float64(bad-c.lastBad) / float64(d)
	}
	c.lastTotal, c.lastBad = total, bad

	switch {
	case (util > utilHigh || burn > burnHigh) && routable < as.Max:
		h := c.cfg.Hosts[(c.nextID)%len(c.cfg.Hosts)]
		n := c.addNode(h) // rebuilds the topology caches
		c.recordScale("up", n, util, burn)
	case util < utilLow && burn <= burnHigh/2 && routable > as.Min:
		// Drain the routable node with the least in flight; ties prefer
		// the newest node so the original fleet persists.
		victim := c.nodes[c.routableIdx[0]]
		for _, i := range c.routableIdx[1:] {
			n := c.nodes[i]
			if n.inflight() < victim.inflight() || (n.inflight() == victim.inflight() && n.id > victim.id) {
				victim = n
			}
		}
		victim.draining = true
		c.rebuildTopo()
		c.recordScale("down", victim, util, burn)
	}
}

// recordScale logs one decision in the report and queues its xray mark.
func (c *Cluster) recordScale(action string, n *node, util, burn float64) {
	switch action {
	case "up":
		c.pendingUp++
	case "down":
		c.pendingDown++
	}
	c.report.ScaleEvents = append(c.report.ScaleEvents, ScaleEvent{
		At: c.now, Action: action, Node: n.id, Util: util, Burn: burn, Fleet: len(c.routableIdx),
	})
}
