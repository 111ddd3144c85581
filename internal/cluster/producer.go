package cluster

import (
	"fmt"

	"toss/internal/simtime"
	"toss/internal/workload"
)

// The producer generates arrivals on a goroutine of its own, so arrival
// generation overlaps the event loop on a second core. It pulls the
// Source, checks time order, interns each function name to its id, and
// hands the loop fixed batches of queued values through a channel; the
// loop hands each batch back once it has read it. The loop itself never
// calls the Source or the name map.
//
// Everything the run decides stays on the loop's goroutine, and the
// producer's output is a pure function of the Source, so the run is
// byte-identical to pulling one arrival at a time. A failed arrival ends
// the producer's last batch, and the loop surfaces its error at the point
// where it would have pulled that arrival: after making the arrival before
// it pending, before routing it.

const (
	// batchLen is the number of arrivals one hand-off carries.
	batchLen = 1024
	// batches is the number of batches a run recycles: the loop reads one
	// while the producer fills the others.
	batches = 4
)

// arrivalBatch is one hand-off from the producer to the loop: n arrivals
// in time order. The producer's last batch has final set, and failure or
// panicValue set when the source stopped it early.
type arrivalBatch struct {
	qs    [batchLen]queued
	n     int
	final bool
	// failure is the error of the arrival after qs[n-1].
	failure error
	// panicValue is what Source.Next panicked with; recover never returns
	// nil for a panic since Go 1.21, so nil means no panic.
	panicValue any
}

// producer is the running producer goroutine's channels.
type producer struct {
	// full carries filled batches to the loop, free carries read ones
	// back. Both hold every batch at once, so no send blocks.
	full, free chan *arrivalBatch
	// quit tells the producer to stop; done closes when it has.
	quit, done chan struct{}
}

// startProducer starts the producer goroutine over src; stop joins it.
func startProducer(src workload.Source, fnIdx map[string]int32) *producer {
	p := &producer{
		full: make(chan *arrivalBatch, batches),
		free: make(chan *arrivalBatch, batches),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	for k := 0; k < batches; k++ {
		p.free <- new(arrivalBatch)
	}
	go p.run(src, fnIdx)
	return p
}

// stop tells the producer to quit and waits until it has returned.
func (p *producer) stop() {
	close(p.quit)
	<-p.done
}

// take returns the next free batch, emptied, or nil once the loop has
// stopped the run.
func (p *producer) take() *arrivalBatch {
	select {
	case b := <-p.free:
		b.n = 0
		return b
	case <-p.quit:
		return nil
	}
}

// run is the producer goroutine: it drains src into batches until the
// source is dry, an arrival fails, the source panics, or the loop stops
// it.
func (p *producer) run(src workload.Source, fnIdx map[string]int32) {
	defer close(p.done)
	b := p.take()
	// The batch being filled when the source ends is the last one: it goes
	// to the loop marked final, with the failure or the panic that ended
	// it. b is nil only when the loop has stopped the run.
	defer func() {
		v := recover()
		if b != nil {
			b.final, b.panicValue = true, v
			p.full <- b
		}
	}()
	var prev simtime.Duration
	for b != nil {
		a, ok := src.Next()
		if !ok {
			return
		}
		fid, ok := fnIdx[a.Function]
		if !ok {
			b.failure = fmt.Errorf("cluster: arrival for unprofiled function %q", a.Function)
			return
		}
		if a.At < prev {
			b.failure = fmt.Errorf("cluster: arrival at %v is out of time order (clock at %v)", a.At, prev)
			return
		}
		prev = a.At
		b.qs[b.n] = queued{enq: a.At, fid: fid, level: uint8(a.Level)}
		b.n++
		if b.n == batchLen {
			p.full <- b
			b = p.take()
		}
	}
}
