// Package microvm simulates the Firecracker-style virtual machine monitor
// that hosts serverless functions. It reproduces the lifecycle the paper
// builds on:
//
//	fresh boot  -> run -> pause -> snapshot            (initial execution)
//	restore     -> run                                  (subsequent invocations)
//
// Three restore modes cover the systems under evaluation:
//
//   - Lazy: Firecracker's default — map the memory file once and demand-fault
//     every page from disk on first touch (the "DRAM snapshot" baseline).
//   - REAP: prefetch the recorded working set sequentially at setup time and
//     populate its page-table entries, demand-faulting only the rest.
//   - Tiered (TOSS): map each layout region of the two tier files; slow-tier
//     regions are accessed in place (DAX, minor fault only), fast-tier
//     regions load from disk on first touch.
//
// All costs are charged in virtual time through the mem and disk models.
package microvm

import (
	"fmt"
	"slices"

	"toss/internal/access"
	"toss/internal/disk"
	"toss/internal/fault"
	"toss/internal/guest"
	"toss/internal/mem"
	"toss/internal/simtime"
	"toss/internal/snapshot"
	"toss/internal/telemetry"
	"toss/internal/xray"
)

// Config carries the platform cost constants alongside the memory and disk
// models. The VMM-side constants are calibrated to published Firecracker and
// REAP measurements.
type Config struct {
	Mem  mem.Config
	Disk disk.Config
	// BootTime is a fresh microVM boot (kernel + runtime init).
	BootTime simtime.Duration
	// VMLoadBase is the fixed cost of loading the VM state file and
	// restoring the device model.
	VMLoadBase simtime.Duration
	// MmapCost is charged per memory mapping established at restore.
	MmapCost simtime.Duration
	// PTEPopulateCost is charged per page REAP pre-populates at setup.
	PTEPopulateCost simtime.Duration
	// MajorFaultTrap is the kernel-side cost of one demand fault, excluding
	// the device read itself.
	MajorFaultTrap simtime.Duration
	// MinorFaultTrap is the cost of a first touch that needs no device read
	// (anonymous zero page or DAX-mapped slow-tier page).
	MinorFaultTrap simtime.Duration
	// FaultAroundPages is the kernel's fault-around window: sequential
	// demand faults are batched so only one trap per window is paid.
	FaultAroundPages int64
	// UffdRoundTrip is the userspace page-fault round trip REAP pays per
	// non-prefetched page: kernel trap, userfaultfd wakeup, handler copy.
	UffdRoundTrip simtime.Duration
	// UffdContentionBeta scales the round trip under concurrency — REAP's
	// fault handler serializes concurrent invocations' misses, the paper's
	// REAP-Worst scalability collapse (Fig. 9).
	UffdContentionBeta float64
	// Metrics, when non-nil, receives fault/restore/execution metrics from
	// every machine built with this config. Nil (the default) disables
	// metric recording at the cost of one pointer comparison per site.
	Metrics *telemetry.Metrics
	// Observer, when non-nil, receives lifecycle callbacks (restore
	// placements, demand-fault stalls) from every machine built with this
	// config — the flight recorder in internal/obs implements it. Nil (the
	// default) disables observation at the cost of one interface comparison
	// per site.
	Observer Observer
	// Faults, when non-nil, injects deterministic device stalls into the
	// replay hot loop (slow-tier reads, snapshot demand reads) of every
	// machine built with this config; restore-time sites are queried by the
	// callers that can return errors (core, platform, reap, sched). Nil
	// (the default) disables injection at the cost of one pointer
	// comparison per site — the zero-fault platform is byte-identical to
	// the pre-fault one. See FAULTS.md.
	Faults *fault.Injector
	// XRay, when non-nil, receives an exact per-invocation latency budget
	// from every machine built with this config: setup decomposed into its
	// restore phases, execution into CPU / per-tier memory service /
	// contention wait / demand-fault stalls / injected stalls, sealed with
	// the machine's own end-to-end clock so the segments provably sum to
	// the recorded time. Nil (the default) disables attribution at the cost
	// of one pointer comparison per run.
	XRay *xray.Collector
}

// Observer receives machine lifecycle callbacks. Implementations must be
// safe for concurrent use: machines running on different goroutines share
// one Observer. internal/obs.Recorder is the canonical implementation.
type Observer interface {
	// MachineRestored fires once per Run, before the first event executes.
	// kind names the setup flavor ("boot", "restore-lazy", "restore-reap",
	// "restore-tiered", or "resident"); slow lists the slow-tier regions of
	// the machine's placement (shared — do not mutate).
	MachineRestored(label, kind string, slow []guest.Region, totalPages int64, setup simtime.Duration)
	// FaultStall fires once per demand-fault burst with the tier that served
	// it and the stall cost; at is the burst's start on the machine-local
	// virtual timeline (0 = setup start).
	FaultStall(label string, tier mem.Tier, region guest.Region, major, minor int64, cost, at simtime.Duration)
}

// DefaultConfig returns the calibrated platform.
func DefaultConfig() Config {
	return Config{
		Mem:                mem.DefaultConfig(),
		Disk:               disk.DefaultConfig(),
		BootTime:           700 * simtime.Millisecond,
		VMLoadBase:         4 * simtime.Millisecond,
		MmapCost:           25 * simtime.Microsecond,
		PTEPopulateCost:    400 * simtime.Nanosecond,
		MajorFaultTrap:     2 * simtime.Microsecond,
		MinorFaultTrap:     500 * simtime.Nanosecond,
		FaultAroundPages:   16,
		UffdRoundTrip:      12 * simtime.Microsecond,
		UffdContentionBeta: 0.25,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Disk.Validate(); err != nil {
		return err
	}
	if c.BootTime < 0 || c.VMLoadBase < 0 || c.MmapCost < 0 ||
		c.PTEPopulateCost < 0 || c.MajorFaultTrap < 0 || c.MinorFaultTrap < 0 {
		return fmt.Errorf("microvm: negative cost constant")
	}
	if c.FaultAroundPages < 1 {
		return fmt.Errorf("microvm: FaultAroundPages %d < 1", c.FaultAroundPages)
	}
	if c.UffdRoundTrip < 0 || c.UffdContentionBeta < 0 {
		return fmt.Errorf("microvm: negative userfaultfd cost")
	}
	return nil
}

// Backing describes where non-resident pages come from.
type Backing uint8

const (
	// BackingAnon is a fresh boot: first touches allocate zero pages.
	BackingAnon Backing = iota
	// BackingDisk is a lazily-restored snapshot: first touches read 4 KiB
	// from the snapshot file.
	BackingDisk
	// BackingTiered is a TOSS restore: fast-tier pages read from the fast
	// file on first touch, slow-tier pages are DAX-mapped in place.
	BackingTiered
)

// Machine is one microVM instance, alive for a single invocation.
type Machine struct {
	cfg       Config
	layout    guest.Layout
	placement *mem.Placement
	backing   Backing
	// resident is the set of mapped pages as extents, so a restore costs
	// O(layout entries), not O(guest pages).
	resident extents
	// stored marks pages with backing-file contents; non-stored pages are
	// snapshot holes (zero pages) that only need zero-fill on first touch.
	// Lazy and REAP restores share the snapshot's memoized regions here:
	// the set is read-only.
	stored extents
	// uffd marks REAP-style restores where every miss is served by a
	// userspace fault handler instead of kernel demand paging.
	uffd  bool
	setup simtime.Duration
	// concurrency is the number of invocations sharing the host, used by
	// the contention models.
	concurrency int
	// recordTruth controls whether Run builds the ground-truth access
	// histogram. Profiling needs it; timing-only runs can skip the cost.
	recordTruth bool
	// setupKind/setupName label the setup span; parts break the setup time
	// into its telemetry sub-spans (vm-load, mmap, prefetch, ...).
	setupKind telemetry.SpanKind
	setupName string
	parts     []setupPart
	// label identifies the machine to observers, normally the function
	// name. Restores inherit it from the snapshot's Function field.
	label string
	// prefetched counts pages made resident at setup time (REAP working-set
	// prefetch, TOSS slow-tier DAX mappings) — demand faults avoided during
	// execution by paying at restore, reported as a budget mark.
	prefetched int64
	// segbuf and gapbuf are reusable scratch slices for per-event tier
	// splits and freshly touched runs; a machine serves one invocation on
	// one goroutine, so reuse is safe.
	segbuf []mem.Segment
	gapbuf []guest.Region
}

// setupPart is one component of the setup-time breakdown, in order.
type setupPart struct {
	kind  telemetry.SpanKind
	name  string
	dur   simtime.Duration
	attrs []telemetry.Attr
}

// SetRecordTruth enables or disables ground-truth histogram collection for
// subsequent Run calls. It is on by default.
func (m *Machine) SetRecordTruth(on bool) { m.recordTruth = on }

// SetLabel names the machine for observers (usually the function it serves).
// Restore constructors set it from the snapshot's Function field; booted and
// resident machines start unlabeled.
func (m *Machine) SetLabel(label string) { m.label = label }

// Label returns the observer label.
func (m *Machine) Label() string { return m.label }

// NewBooted returns a freshly booted DRAM-only machine (the paper's Step I).
func NewBooted(cfg Config, layout guest.Layout) *Machine {
	m := &Machine{
		cfg:         cfg,
		layout:      layout,
		placement:   mem.AllFast(),
		backing:     BackingAnon,
		resident:    guest.NormalizeRegions([]guest.Region{layout.BootImage}), // boot leaves it resident
		setup:       cfg.BootTime,
		concurrency: 1,
		recordTruth: true,
		setupKind:   telemetry.KindBoot,
		setupName:   "boot",
	}
	m.parts = []setupPart{{kind: telemetry.KindBoot, name: "kernel+runtime", dur: cfg.BootTime}}
	return m
}

// RestoreLazy returns a machine restored from a single-tier snapshot with
// Firecracker's default on-demand paging.
func RestoreLazy(cfg Config, layout guest.Layout, snap *snapshot.Single, concurrency int) *Machine {
	m := &Machine{
		cfg:         cfg,
		layout:      layout,
		placement:   mem.AllFast(),
		backing:     BackingDisk,
		stored:      snap.Memory.ResidentRegions(),
		concurrency: clampConc(concurrency),
		recordTruth: true,
		label:       snap.Function,
	}
	m.setup = cfg.VMLoadBase + cfg.MmapCost // one mapping for the memory file
	m.setupKind, m.setupName = telemetry.KindSnapshotRestore, "restore-lazy"
	m.parts = []setupPart{
		{kind: telemetry.KindSnapshotRestore, name: "vm-load", dur: cfg.VMLoadBase},
		{kind: telemetry.KindMmap, name: "mmap", dur: cfg.MmapCost,
			attrs: []telemetry.Attr{telemetry.I64("mappings", 1)}},
	}
	return m
}

// RestoreREAP returns a machine restored the REAP way: the working set is
// prefetched from its consolidated file in one sequential read and its page
// tables are populated eagerly; everything else demand-faults.
func RestoreREAP(cfg Config, layout guest.Layout, snap *snapshot.Single, ws []guest.Region, concurrency int) *Machine {
	m := RestoreLazy(cfg, layout, snap, concurrency)
	m.uffd = true
	ws = guest.NormalizeRegions(ws)
	wsPages := guest.TotalPages(ws)
	prefetch := cfg.Disk.SequentialRead(wsPages*guest.PageSize, m.concurrency)
	ptePop := simtime.Duration(wsPages) * cfg.PTEPopulateCost
	m.setup = cfg.VMLoadBase + 2*cfg.MmapCost + // memory file + WS file
		prefetch + ptePop
	m.setupKind, m.setupName = telemetry.KindSnapshotRestore, "restore-reap"
	m.parts = []setupPart{
		{kind: telemetry.KindSnapshotRestore, name: "vm-load", dur: cfg.VMLoadBase},
		{kind: telemetry.KindMmap, name: "mmap", dur: 2 * cfg.MmapCost,
			attrs: []telemetry.Attr{telemetry.I64("mappings", 2)}},
		{kind: telemetry.KindPrefetch, name: "ws-prefetch", dur: prefetch,
			attrs: []telemetry.Attr{telemetry.I64("pages", wsPages)}},
		{kind: telemetry.KindPTEPopulate, name: "pte-populate", dur: ptePop,
			attrs: []telemetry.Attr{telemetry.I64("pages", wsPages)}},
	}
	m.resident = ws // NormalizeRegions returned a fresh slice
	m.prefetched = wsPages
	return m
}

// RestoreTiered returns a machine restored from a TOSS tiered snapshot: one
// mmap per layout entry, slow-tier entries resident in place (DAX), fast
// entries demand-loaded from the fast file.
func RestoreTiered(cfg Config, layout guest.Layout, ts *snapshot.Tiered, concurrency int) *Machine {
	var stored, slow []guest.Region
	for _, e := range ts.Entries {
		stored = append(stored, e.GuestRegion())
		if e.Tier == mem.Slow {
			slow = append(slow, e.GuestRegion())
		}
	}
	m := &Machine{
		cfg:         cfg,
		layout:      layout,
		backing:     BackingTiered,
		resident:    guest.NormalizeRegions(slow),
		stored:      guest.NormalizeRegions(stored),
		concurrency: clampConc(concurrency),
		recordTruth: true,
		label:       ts.Function,
	}
	m.placement = mem.NewPlacement(slow)
	m.prefetched = guest.TotalPages(slow)
	m.setup = cfg.VMLoadBase + simtime.Duration(len(ts.Entries))*cfg.MmapCost
	m.setupKind, m.setupName = telemetry.KindSnapshotRestore, "restore-tiered"
	m.parts = []setupPart{
		{kind: telemetry.KindSnapshotRestore, name: "vm-load", dur: cfg.VMLoadBase},
		{kind: telemetry.KindMmap, name: "mmap", dur: simtime.Duration(len(ts.Entries)) * cfg.MmapCost,
			attrs: []telemetry.Attr{
				telemetry.I64("mappings", int64(len(ts.Entries))),
				telemetry.I64("slow_pages", guest.TotalPages(slow)),
			}},
	}
	return m
}

// NewResident returns a machine whose memory is fully resident under an
// explicit page placement — no demand paging, pure tiered execution. TOSS's
// bin-profiling step (§V-C) uses this to measure how a candidate
// fast/slow split affects execution time in steady state.
func NewResident(cfg Config, layout guest.Layout, placement *mem.Placement, concurrency int) *Machine {
	return &Machine{
		cfg:         cfg,
		layout:      layout,
		placement:   placement,
		backing:     BackingAnon,
		resident:    guest.NormalizeRegions([]guest.Region{{Start: 0, Pages: layout.TotalPages}}),
		concurrency: clampConc(concurrency),
		recordTruth: true,
	}
}

func clampConc(c int) int {
	if c < 1 {
		return 1
	}
	return c
}

// SetupTime reports the virtual time the restore (or boot) took.
func (m *Machine) SetupTime() simtime.Duration { return m.setup }

// Placement exposes the machine's page-to-tier mapping.
func (m *Machine) Placement() *mem.Placement { return m.placement }

// Result is the outcome of running one invocation on a machine.
type Result struct {
	// Setup is the restore/boot time.
	Setup simtime.Duration
	// Exec is the function execution time, including demand-fault stalls.
	Exec simtime.Duration
	// Meter breaks execution down by CPU vs per-tier memory time.
	Meter mem.Meter
	// MajorFaults and MinorFaults count first-touch events.
	MajorFaults int64
	MinorFaults int64
	// FaultTime is the part of Exec spent in demand paging.
	FaultTime simtime.Duration
	// Truth is the ground-truth per-page access histogram of the
	// invocation, which profilers consume.
	Truth *access.Histogram
	// Trace is the executed trace (for working-set extraction).
	Trace *access.Trace
	// InjectedFaults counts fault-injector firings during the run, and
	// InjectedStall the virtual time they added (already included in Exec
	// and, per tier, in the Meter).
	InjectedFaults int64
	InjectedStall  simtime.Duration
	// Budget is the invocation's attribution budget (nil unless the config
	// has an XRay collector). Its segments sum exactly to Setup+Exec; upper
	// layers extend it when they lengthen the invocation.
	Budget *xray.Budget
}

// Total returns setup plus execution — the paper's "invocation time".
func (r Result) Total() simtime.Duration { return r.Setup + r.Exec }

// Run executes a trace on the machine and returns the invocation result.
// Run may be called once per machine; serverless invocations are 1:1 with
// microVM instances in all experiments.
func (m *Machine) Run(tr *access.Trace) (Result, error) { return m.RunTraced(tr, nil) }

// RunTraced executes a trace like Run and, when span is non-nil, attaches
// the invocation's span tree under it on the machine's own virtual timeline
// (0 .. setup .. setup+exec): a setup span broken into its parts, then an
// exec span with one child span per demand-fault stall. A nil span records
// nothing and costs one pointer comparison per fault burst.
func (m *Machine) RunTraced(tr *access.Trace, span *telemetry.Span) (Result, error) {
	if err := tr.Validate(); err != nil {
		return Result{}, fmt.Errorf("microvm: invalid trace: %w", err)
	}
	res := Result{
		Setup: m.setup,
		Truth: access.NewHistogram(),
		Trace: tr,
	}
	if m.recordTruth {
		// The ground truth of a replay is a pure function of the trace;
		// share the trace's memoized histogram instead of re-folding the
		// events. Consumers treat Truth as read-only.
		res.Truth = tr.Counts()
	}
	met := m.cfg.Metrics
	var faultHist *telemetry.Histogram
	if met != nil {
		faultHist = met.Histogram(telemetry.MetricFaultLatency, telemetry.LatencyBuckets())
	}
	inj := m.cfg.Faults
	ob := m.cfg.Observer
	// Attribution: faultTier accumulates demand-fault cost per serving tier
	// excluding injected disk stalls; injDisk tracks those stalls so the
	// injected share of slow-tier memory time can be recovered exactly.
	var bud *xray.Budget
	var faultTier [2]simtime.Duration
	var injDisk simtime.Duration
	if m.cfg.XRay != nil {
		bud = xray.New(m.label)
	}
	if ob != nil {
		kind := m.setupName
		if kind == "" {
			kind = "resident"
		}
		ob.MachineRestored(m.label, kind, m.placement.SlowRegions(), m.layout.TotalPages, m.setup)
	}
	var execSpan *telemetry.Span
	if span != nil {
		if m.setup > 0 || len(m.parts) > 0 {
			setupSpan := span.Child(m.setupKind, m.setupName, 0)
			cursor := simtime.Duration(0)
			for _, p := range m.parts {
				ps := setupSpan.Child(p.kind, p.name, cursor, p.attrs...)
				cursor += p.dur
				ps.EndAt(cursor)
			}
			setupSpan.EndAt(m.setup)
		}
		execSpan = span.Child(telemetry.KindExec, "exec", m.setup)
	}
	clock := simtime.NewClock()
	for _, e := range tr.Events {
		if e.Region.End() > guest.PageID(m.layout.TotalPages) {
			return Result{}, fmt.Errorf("microvm: event %v exceeds guest of %d pages", e.Region, m.layout.TotalPages)
		}
		m.segbuf = m.placement.AppendSegments(m.segbuf[:0], e.Region)
		for _, seg := range m.segbuf {
			// Demand paging for first touches of this segment.
			newStored, newZero := m.touch(seg.Region)
			if newStored+newZero > 0 {
				cost, major, minor := m.faultCost(e, seg.Tier, newStored, newZero)
				baseCost := cost
				if inj != nil && newStored > 0 && m.backing != BackingAnon {
					// An injected SSD hiccup stalls this demand-read burst;
					// the stall rides inside the burst's cost so spans,
					// histograms, and observers all see it.
					if spec, fired := inj.At(fault.SiteDiskRead, m.label, m.setup+clock.Now()); fired {
						stall := m.cfg.Disk.StallCost(spec.Stall, m.concurrency)
						cost += stall
						res.InjectedFaults++
						res.InjectedStall += stall
					}
				}
				if execSpan != nil {
					fs := execSpan.Child(telemetry.KindDemandFault, "fault",
						m.setup+clock.Now(),
						telemetry.I64("major", major),
						telemetry.I64("minor", minor),
						telemetry.I64("pages", newStored+newZero),
						telemetry.Str("tier", seg.Tier.String()))
					fs.EndAt(m.setup + clock.Now() + cost)
				}
				faultHist.Observe(cost.Nanoseconds())
				if ob != nil {
					ob.FaultStall(m.label, seg.Tier, seg.Region, major, minor, cost, m.setup+clock.Now())
				}
				clock.Advance(cost)
				res.FaultTime += cost
				res.MajorFaults += major
				res.MinorFaults += minor
				if bud != nil {
					faultTier[seg.Tier] += baseCost
					injDisk += cost - baseCost
				}
			}
			// Memory service.
			clock.Advance(res.Meter.ChargePages(m.cfg.Mem, e, seg.Tier, m.concurrency, seg.Region.Pages))
			if inj != nil && seg.Tier == mem.Slow {
				// An injected slow-tier device stall delays this DAX access
				// burst, scaled by the tier's contention factor and charged
				// to slow-tier memory time.
				if spec, fired := inj.At(fault.SiteSlowRead, m.label, m.setup+clock.Now()); fired {
					stall := simtime.Duration(float64(spec.Stall)*m.cfg.Mem.ContentionFactor(mem.Slow, m.concurrency) + 0.5)
					clock.Advance(stall)
					res.Meter.ChargeStall(mem.Slow, stall)
					res.InjectedFaults++
					res.InjectedStall += stall
				}
			}
		}
	}
	res.Exec = clock.Now()
	if execSpan != nil {
		execSpan.Annotate(
			telemetry.I64("major_faults", res.MajorFaults),
			telemetry.I64("minor_faults", res.MinorFaults),
			telemetry.Dur("fault_ns", res.FaultTime))
		execSpan.EndAt(m.setup + res.Exec)
	}
	if met != nil {
		met.Counter(telemetry.MetricRuns).Add(1)
		met.Histogram(telemetry.MetricSetupTime, telemetry.LatencyBuckets()).Observe(res.Setup.Nanoseconds())
		met.Histogram(telemetry.MetricExecTime, telemetry.LatencyBuckets()).Observe(res.Exec.Nanoseconds())
		met.Counter(telemetry.MetricMajorFaults).Add(res.MajorFaults)
		met.Counter(telemetry.MetricMinorFaults).Add(res.MinorFaults)
		met.Counter(telemetry.MetricCPUTime).Add(res.Meter.CPUTime.Nanoseconds())
		met.Counter(telemetry.MetricFastTierTime).Add(res.Meter.MemTime[mem.Fast].Nanoseconds())
		met.Counter(telemetry.MetricSlowTierTime).Add(res.Meter.MemTime[mem.Slow].Nanoseconds())
		if res.InjectedFaults > 0 {
			met.Counter(telemetry.MetricFaultInjected).Add(res.InjectedFaults)
			met.Counter(telemetry.MetricFaultStallTime).Add(res.InjectedStall.Nanoseconds())
		}
	}
	if bud != nil {
		// Setup: the parts sum exactly to m.setup in every constructor.
		for _, p := range m.parts {
			bud.Add(setupSegID(p.name), p.dur)
		}
		// Exec: Exec == FaultTime + Meter total, FaultTime splits into
		// per-tier cost plus injected disk stalls, and slow-tier memory
		// time into service / contention wait / injected stalls — so the
		// decomposition below re-derives Exec exactly, in integer
		// arithmetic, from independent accounting.
		injSlow := res.InjectedStall - injDisk
		bud.Add(xray.SegExecCPU, res.Meter.CPUTime)
		bud.Add(xray.SegExecMemFast, res.Meter.MemTime[mem.Fast]-res.Meter.Contended[mem.Fast])
		bud.Add(xray.SegExecMemSlow, res.Meter.MemTime[mem.Slow]-res.Meter.Contended[mem.Slow]-injSlow)
		bud.Add(xray.SegExecContendFast, res.Meter.Contended[mem.Fast])
		bud.Add(xray.SegExecContendSlow, res.Meter.Contended[mem.Slow])
		bud.Add(xray.SegExecFaultFast, faultTier[mem.Fast])
		bud.Add(xray.SegExecFaultSlow, faultTier[mem.Slow])
		bud.Add(xray.SegFaultInjected, res.InjectedStall)
		bud.Mark(xray.MarkMajorFaults, res.MajorFaults)
		bud.Mark(xray.MarkMinorFaults, res.MinorFaults)
		bud.Mark(xray.MarkInjected, res.InjectedFaults)
		bud.Mark(xray.MarkPrefetchCredit, m.prefetched)
		bud.Seal(res.Setup + res.Exec)
		res.Budget = bud
		m.cfg.XRay.Observe(bud)
	}
	return res, nil
}

// setupSegID maps a setup-part name to its attribution segment id.
func setupSegID(name string) string {
	switch name {
	case "kernel+runtime":
		return xray.SegBootKernel
	case "vm-load":
		return xray.SegRestoreVMLoad
	case "mmap":
		return xray.SegRestoreMmap
	case "ws-prefetch":
		return xray.SegRestorePrefetch
	case "pte-populate":
		return xray.SegRestorePTEPopulate
	default:
		return "restore." + name
	}
}

// touch marks all pages of r resident and splits the newly-touched count
// into pages with stored backing-file contents and zero-page holes.
func (m *Machine) touch(r guest.Region) (newStored, newZero int64) {
	m.gapbuf = m.resident.add(r, m.gapbuf[:0])
	for _, g := range m.gapbuf {
		n := m.stored.overlap(g)
		newStored += n
		newZero += g.Pages - n
	}
	return newStored, newZero
}

// faultCost prices first touches of new pages of the given tier under event
// e's access pattern, returning (cost, majorFaults, minorFaults).
func (m *Machine) faultCost(e access.Event, t mem.Tier, newStored, newZero int64) (simtime.Duration, int64, int64) {
	switch m.backing {
	case BackingAnon:
		return simtime.Duration(newStored+newZero) * m.cfg.MinorFaultTrap, 0, newStored + newZero
	case BackingDisk:
		if m.uffd {
			// REAP: every miss — stored or hole — detours through the
			// userspace handler, which also serializes across concurrent
			// invocations; stored pages additionally read 4 KiB from disk.
			n := newStored + newZero
			rt := float64(m.cfg.UffdRoundTrip) * (1 + m.cfg.UffdContentionBeta*float64(m.concurrency-1))
			cost := simtime.Duration(float64(n)*rt+0.5) + m.cfg.Disk.FaultCost(newStored, m.concurrency)
			return cost, n, 0
		}
		// Kernel demand paging: stored pages read from the snapshot file,
		// holes are zero-filled minor faults.
		cost := m.majorFaultCost(e, newStored) + simtime.Duration(newZero)*m.cfg.MinorFaultTrap
		return cost, newStored, newZero
	case BackingTiered:
		// Slow-tier entries were made resident at restore (DAX), so any
		// non-resident page here is either a fast-tier page loading from
		// the fast file (stored) or a zero hole in either tier.
		cost := m.majorFaultCost(e, newStored) + simtime.Duration(newZero)*m.cfg.MinorFaultTrap
		return cost, newStored, newZero
	default:
		panic(fmt.Sprintf("microvm: unknown backing %d", m.backing))
	}
}

// majorFaultCost prices demand reads from the snapshot file. Sequential
// bursts benefit from kernel fault-around and readahead: one trap per
// fault-around window and bandwidth-priced reads. Random touches pay the
// full trap plus a 4 KiB random read each.
func (m *Machine) majorFaultCost(e access.Event, pages int64) simtime.Duration {
	if e.Pattern == access.Sequential {
		windows := (pages + m.cfg.FaultAroundPages - 1) / m.cfg.FaultAroundPages
		return simtime.Duration(windows)*m.cfg.MajorFaultTrap +
			m.cfg.Disk.SequentialRead(pages*guest.PageSize, m.concurrency)
	}
	return simtime.Duration(pages)*m.cfg.MajorFaultTrap +
		m.cfg.Disk.FaultCost(pages, m.concurrency)
}

// Snapshot captures the machine's resident memory as a single-tier snapshot
// after an invocation (the paper's Step I) and prices the capture.
func (m *Machine) Snapshot(function string) (*snapshot.Single, simtime.Duration) {
	return m.SnapshotTraced(function, nil, 0)
}

// SnapshotTraced is Snapshot plus telemetry: when parent is non-nil it emits
// a KindSnapshotCreate span starting at `at` on the parent's timeline, and
// the capture cost lands in the snapshot-create histogram when metrics are
// configured.
func (m *Machine) SnapshotTraced(function string, parent *telemetry.Span, at simtime.Duration) (*snapshot.Single, simtime.Duration) {
	memImg := snapshot.NewMemory(function, m.layout.TotalPages, m.resident)
	const vmStateBytes = 1 << 20
	cost := m.cfg.Disk.SequentialWrite(memImg.ResidentBytes()+vmStateBytes, m.concurrency)
	if parent != nil {
		s := parent.Child(telemetry.KindSnapshotCreate, "snapshot-write", at,
			telemetry.I64("resident_bytes", memImg.ResidentBytes()),
			telemetry.Str("function", function))
		s.EndAt(at + cost)
	}
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.Histogram(telemetry.MetricSnapshotWrite, telemetry.LatencyBuckets()).
			Observe(cost.Nanoseconds())
	}
	return &snapshot.Single{
		Function:     function,
		Memory:       memImg,
		VMStateBytes: vmStateBytes,
	}, cost
}

// extents is a page set held as sorted, disjoint, non-adjacent runs — the
// shape of placements, layout entries and snapshot resident regions — so
// building one from a restore costs O(runs), not O(guest pages). Lookups
// binary-search; inserting a run between two others shifts the tail, so n
// scattered single-page touches cost O(n²) (BenchmarkTouchScattered). No
// generated trace comes close.
type extents []guest.Region

// search returns the index of the first run ending at or after p.
func (x extents) search(p guest.PageID) int {
	lo, hi := 0, len(x)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x[mid].End() < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// add inserts r and appends its sub-runs that were not yet in the set to
// gaps, in address order.
func (x *extents) add(r guest.Region, gaps []guest.Region) []guest.Region {
	s := *x
	i := s.search(r.Start)
	if r.Empty() || i < len(s) && s[i].Start <= r.Start && s[i].End() >= r.End() {
		return gaps
	}
	// Runs i..j-1 overlap or abut r; they merge with it into one run.
	start, end, cur := r.Start, r.End(), r.Start
	j := i
	for ; j < len(s) && s[j].Start <= end; j++ {
		if s[j].Start > cur {
			gaps = append(gaps, guest.Region{Start: cur, Pages: int64(s[j].Start - cur)})
		}
		cur = max(cur, s[j].End())
		start, end = min(start, s[j].Start), max(end, s[j].End())
	}
	if cur < r.End() {
		gaps = append(gaps, guest.Region{Start: cur, Pages: int64(r.End() - cur)})
	}
	merged := guest.Region{Start: start, Pages: int64(end - start)}
	if i == j {
		*x = slices.Insert(s, i, merged)
	} else {
		s[i] = merged
		*x = append(s[:i+1], s[j:]...)
	}
	return gaps
}

// overlap counts the pages of r in the set.
func (x extents) overlap(r guest.Region) int64 {
	var n int64
	for i := x.search(r.Start + 1); i < len(x) && x[i].Start < r.End(); i++ {
		n += int64(min(x[i].End(), r.End()) - max(x[i].Start, r.Start))
	}
	return n
}
