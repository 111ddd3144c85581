package main

import (
	"fmt"
	"time"

	"toss/internal/core"
	"toss/internal/mem"
	"toss/internal/microvm"
	"toss/internal/platform"
	"toss/internal/workload"
)

// serve is the steady state the paper optimises: one host serving all ten
// functions from their tiered snapshots. It is a closed loop with one
// client: each request is sent when the previous one completes. One op is
// one invocation.
var serveDef = workloadDef{
	name:            "serve",
	make:            func(seed int64, _ string, p *probe) bench { return newServeBench(seed, p) },
	passesPerSecond: 2.5,
	top:             []string{"workload.trace_s", "platform.invoke_s"},
}

// serveRequestsPerPass is the number of requests in one pass.
const serveRequestsPerPass = 2000

type serveBench struct {
	seed  int64
	p     *probe
	cfg   core.Config
	plat  *platform.Platform
	specs []*workload.Spec
	// mirrors are controllers fed the platform's inputs (traced run only).
	mirrors map[string]*core.Controller

	acc                  accumulator
	fastTouches, touches int64
}

func newServeBench(seed int64, p *probe) *serveBench {
	cfg := core.DefaultConfig()
	cfg.ConvergenceWindow = convergenceWindow
	return &serveBench{seed: seed, p: p, cfg: cfg, acc: newAccumulator()}
}

// setUp registers every function in TOSS mode and invokes each, from fixed
// inputs, until it serves from its tiered snapshot.
func (s *serveBench) setUp() (digest, error) {
	plat, err := platform.New(s.cfg)
	if err != nil {
		return 0, err
	}
	s.plat, s.specs = plat, workload.Registry()
	if s.p.traced {
		s.mirrors = map[string]*core.Controller{}
	}
	d := newDigest()
	for j, spec := range s.specs {
		if err := plat.Register(spec, platform.ModeTOSS); err != nil {
			return 0, err
		}
		var mirror *core.Controller
		if s.p.traced {
			if mirror, err = core.NewController(s.cfg, spec); err != nil {
				return 0, err
			}
			s.mirrors[spec.Name] = mirror
		}
		for k := 0; ; k++ {
			st, err := plat.Stats(spec.Name)
			if err != nil {
				return 0, err
			}
			if st.Phase == core.PhaseTiered {
				d.addFloat(st.NormCost)
				break
			}
			if k >= maxProfilingInvocations {
				return 0, fmt.Errorf("%s: %w in %d invocations", spec.Name, errNotConverged, k)
			}
			lv, seed := workload.Levels[k%len(workload.Levels)], int64(1_000_000*(j+1)+k)
			rec := plat.Invoke(spec.Name, lv, seed)
			if rec.Err != nil {
				return 0, rec.Err
			}
			d.add(int64(rec.Setup), int64(rec.Exec), rec.Faults)
			if mirror != nil {
				if _, err := mirror.Invoke(lv, seed, 1); err != nil {
					return 0, err
				}
			}
		}
		if mirror != nil && mirror.Phase() != core.PhaseTiered {
			return 0, fmt.Errorf("%s: mirror controller in phase %v after set-up", spec.Name, mirror.Phase())
		}
	}
	return d, nil
}

func (s *serveBench) pass(i int) error {
	for k := 0; k < serveRequestsPerPass; k++ {
		idx := int64(i*serveRequestsPerPass + k)
		h := mix(s.seed, idx)
		spec := s.specs[h%int64(len(s.specs))]
		lv := workload.Levels[(h>>16)%int64(len(workload.Levels))]
		seed := mix(s.seed, idx, 1) >> 8 // unique, so no trace is reused
		s.acc.ops++

		if s.p.traced {
			t := s.p.start()
			_, _ = spec.Trace(lv, seed) // a failure resurfaces from Invoke
			s.p.stop("workload.trace_s", t)
		}
		t := s.p.start()
		rec := s.plat.Invoke(spec.Name, lv, seed)
		s.p.sample("platform.invoke", t)
		if rec.Err != nil {
			s.acc.fail("%s: %v", spec.Name, rec.Err)
			continue
		}
		s.acc.lat.add(rec.Total())
		s.acc.dig.add(int64(rec.Setup), int64(rec.Exec), rec.Faults, int64(rec.Phase))
		s.fastTouches += rec.Meter.LineTouches[mem.Fast]
		s.touches += rec.Meter.LineTouches[mem.Fast] + rec.Meter.LineTouches[mem.Slow]
		if rec.Phase == core.PhaseProfiling {
			s.p.count("core.profiling_invocations", 1)
		}
		if s.p.traced {
			if err := s.reissue(spec, lv, seed, rec); err != nil {
				s.acc.fail("%s: %v", spec.Name, err)
			}
		}
	}
	return nil
}

// reissue serves the request again on the function's mirror controller and
// then, for a tiered request, restores and runs the mirror's snapshot
// directly, so the core and microvm layers are timed on their own. Both
// must reproduce the platform's virtual times.
func (s *serveBench) reissue(spec *workload.Spec, lv workload.Level, seed int64, rec platform.Record) error {
	t0 := time.Now()
	defer s.p.exclude(t0)
	m := s.mirrors[spec.Name]
	ts, tiered := m.Tiered(), m.Phase() == core.PhaseTiered
	t := s.p.start()
	res, err := m.Invoke(lv, seed, 1)
	s.p.stop("core.invoke_s", t)
	if err != nil {
		return err
	}
	if res.Setup != rec.Setup || res.Exec != rec.Exec || res.Phase != rec.Phase {
		return fmt.Errorf("mirror controller served %v+%v in %v, platform %v+%v in %v",
			res.Setup, res.Exec, res.Phase, rec.Setup, rec.Exec, rec.Phase)
	}
	if !tiered {
		return nil
	}
	layout, err := spec.Layout()
	if err != nil {
		return err
	}
	tr, err := spec.Trace(lv, seed)
	if err != nil {
		return err
	}
	t = s.p.start()
	vm := microvm.RestoreTiered(s.cfg.VM, layout, ts, 1)
	s.p.stop("microvm.restore_s", t)
	vm.SetRecordTruth(false)
	t = s.p.start()
	run, err := vm.Run(tr)
	s.p.stop("microvm.run_s", t)
	if err != nil {
		return err
	}
	s.p.count("microvm.major_faults", float64(run.MajorFaults))
	if run.Total() != rec.Total() {
		return fmt.Errorf("direct tiered restore took %v, platform %v", run.Total(), rec.Total())
	}
	return nil
}

func (s *serveBench) result() outcome {
	var cost float64
	for _, spec := range s.specs {
		st, err := s.plat.Stats(spec.Name)
		if err != nil {
			s.acc.fail("%s: %v", spec.Name, err)
			continue
		}
		cost += st.NormCost
	}
	return s.acc.outcome(
		metric{"norm_cost", cost / float64(len(s.specs)), "ratio"},
		metric{"p50_ms", s.acc.lat.ms(50), "ms"},
		metric{"p99_ms", s.acc.lat.ms(99), "ms"},
		metric{"fast_hit_pct", 100 * float64(s.fastTouches) / float64(max(s.touches, 1)), "%"})
}
