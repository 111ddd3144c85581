// Package fault is a seeded, virtual-time-deterministic fault injector for
// the TOSS simulation. A Plan assigns each injection Site a firing rate (and,
// for stall sites, a base stall duration); an Injector built from the plan is
// consulted at hook points across the platform — slow-tier reads, snapshot
// demand reads, tiered restores, REAP prefetches, DAMON profile checks, and
// keep-alive admission — and decides deterministically whether each query
// fires.
//
// Determinism: a query hashes (site, function, plan seed, per-(site,function)
// sequence number, virtual time) with FNV-64a and fires when the resulting
// uniform [0,1) value is below the site's rate. No wall clock, no math/rand —
// the same plan over the same invocation stream fires the same faults at the
// same virtual times, so fault-injected experiment output is byte-identical
// across runs. The sequence counters are shared state, so byte-identical
// output additionally requires that queries arrive in a deterministic order
// (serial replay; the CLIs force one worker when a plan is loaded).
//
// A nil *Injector is the disabled injector: every query says "no fault" at
// the cost of one pointer comparison, mirroring the telemetry and observer
// conventions, so the zero-fault configuration is bit-for-bit the pre-fault
// platform. See FAULTS.md for the full fault model and the degradation
// policies that answer each site.
package fault

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"slices"
	"sync"

	"toss/internal/simtime"
)

// Site names one injection point. The string values appear in plans, error
// messages, telemetry, and FAULTS.md.
type Site string

const (
	// SiteSlowRead stalls a slow-tier (DAX) read burst during execution —
	// a PMem/CXL device hiccup. Fires in microvm.RunTraced.
	SiteSlowRead Site = "slow-read"
	// SiteSlowOutage makes the slow tier unavailable at restore time: the
	// tiered snapshot's slow file cannot be mapped. Queried by the TOSS
	// controller and the slow-only platform mode before RestoreTiered.
	SiteSlowOutage Site = "slow-outage"
	// SiteDiskRead stalls a snapshot-file demand read — an SSD hiccup on
	// the major-fault path. Fires in microvm.RunTraced.
	SiteDiskRead Site = "disk-read"
	// SiteRestoreCorrupt reports snapshot corruption detected at restore
	// (checksum mismatch in the layout table or a memory file). Queried
	// before lazy and tiered restores.
	SiteRestoreCorrupt Site = "restore-corrupt"
	// SitePrefetch kills REAP's working-set prefetch thread mid-restore;
	// the manager degrades to a plain lazy restore.
	SitePrefetch Site = "prefetch"
	// SiteProfileStale marks the DAMON-derived placement stale (workload
	// drift beyond what Eq. 4 noticed). Queried by the TOSS controller
	// before serving from the tiered snapshot.
	SiteProfileStale Site = "profile-stale"
	// SiteEvictStorm flushes the keep-alive cache (host memory pressure).
	// Queried by the sched event loop per arrival.
	SiteEvictStorm Site = "evict-storm"
)

// Sites returns every known site in canonical order.
func Sites() []Site {
	return []Site{
		SiteSlowRead, SiteSlowOutage, SiteDiskRead, SiteRestoreCorrupt,
		SitePrefetch, SiteProfileStale, SiteEvictStorm,
	}
}

func knownSite(s Site) bool {
	for _, k := range Sites() {
		if s == k {
			return true
		}
	}
	return false
}

// Spec configures one site's faults.
type Spec struct {
	// Rate is the per-query firing probability in [0, 1].
	Rate float64 `json:"rate"`
	// Stall is the base stall a firing adds, for the stall sites
	// (slow-read, disk-read); it is scaled by the relevant contention
	// model before being charged. Ignored by availability sites.
	Stall simtime.Duration `json:"stall_ns,omitempty"`
	// MaxFires, when positive, caps how many times the site fires per
	// function (tests use it to fire exactly N times).
	MaxFires int64 `json:"max_fires,omitempty"`
}

// Plan is a full fault plan: the seed plus one spec per enabled site.
type Plan struct {
	Seed  int64         `json:"seed"`
	Sites map[Site]Spec `json:"sites"`
}

// Validate checks rates, stalls, and site names. It checks the known sites
// in Sites() order, then reports the first unknown site by name, so a plan
// with several faults always names the same one.
func (p Plan) Validate() error {
	for _, site := range Sites() {
		spec, ok := p.Sites[site]
		if !ok {
			continue
		}
		if spec.Rate < 0 || spec.Rate > 1 {
			return fmt.Errorf("fault: site %s rate %v outside [0, 1]", site, spec.Rate)
		}
		if spec.Stall < 0 {
			return fmt.Errorf("fault: site %s negative stall", site)
		}
		if spec.MaxFires < 0 {
			return fmt.Errorf("fault: site %s negative max_fires", site)
		}
	}
	var unknown []Site
	for site := range p.Sites {
		if !knownSite(site) {
			unknown = append(unknown, site)
		}
	}
	if len(unknown) > 0 {
		return fmt.Errorf("fault: unknown site %q (known: %v)", slices.Min(unknown), Sites())
	}
	return nil
}

// Enabled reports whether any site can fire.
func (p Plan) Enabled() bool {
	for _, spec := range p.Sites {
		if spec.Rate > 0 {
			return true
		}
	}
	return false
}

// LoadPlan reads a JSON plan from path and parses it with ParsePlan.
func LoadPlan(path string) (Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, err
	}
	p, err := ParsePlan(data)
	if err != nil {
		return Plan{}, fmt.Errorf("fault: %s: %w", path, err)
	}
	return p, nil
}

// ParsePlan decodes and validates a plan: exactly one JSON object, with
// nothing but whitespace after it. Unknown fields are rejected so typos in
// site names or spec keys fail loudly instead of silently disabling faults,
// and so is trailing data, which would otherwise hide a second plan or a
// stray brace.
func ParsePlan(data []byte) (Plan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("parse: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Plan{}, fmt.Errorf("parse: data after the plan (offset %d)", dec.InputOffset())
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// UniformPlan fires every site at the same rate with default stalls, except
// the recovery-heavy sites (corruption, stale profile) which fire at a tenth
// of it so the plan models mostly-transient trouble — the faasim -fault-rate
// convenience.
func UniformPlan(rate float64, seed int64) Plan {
	return Plan{
		Seed: seed,
		Sites: map[Site]Spec{
			SiteSlowRead:       {Rate: rate, Stall: 2 * simtime.Millisecond},
			SiteDiskRead:       {Rate: rate, Stall: simtime.Millisecond},
			SiteSlowOutage:     {Rate: rate},
			SitePrefetch:       {Rate: rate},
			SiteEvictStorm:     {Rate: rate},
			SiteRestoreCorrupt: {Rate: rate / 10},
			SiteProfileStale:   {Rate: rate / 10},
		},
	}
}

// Injector decides fault firings for a plan. Safe for concurrent use; the
// per-(site, function) sequence counters make firing order-dependent, so
// byte-deterministic output requires serialized queries (see the package
// comment).
type Injector struct {
	plan Plan

	mu    sync.Mutex
	seq   map[siteFn]uint64
	fires map[siteFn]int64
	total map[Site]int64
}

type siteFn struct {
	site Site
	fn   string
}

// New validates the plan and returns an injector for it.
func New(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		plan:  plan,
		seq:   make(map[siteFn]uint64),
		fires: make(map[siteFn]int64),
		total: make(map[Site]int64),
	}, nil
}

// At asks whether `site` fires for `fn` at virtual time `at`, returning the
// site's spec when it does. Each call consumes one step of the (site, fn)
// sequence, so repeated queries at the same virtual time roll independently.
// Restore-time call sites pass at=0; the sequence number still distinguishes
// the queries. Nil-safe: a nil injector never fires.
func (i *Injector) At(site Site, fn string, at simtime.Duration) (Spec, bool) {
	if i == nil {
		return Spec{}, false
	}
	spec, ok := i.plan.Sites[site]
	if !ok || spec.Rate <= 0 {
		return Spec{}, false
	}
	k := siteFn{site, fn}
	i.mu.Lock()
	defer i.mu.Unlock()
	seq := i.seq[k]
	i.seq[k] = seq + 1
	if spec.MaxFires > 0 && i.fires[k] >= spec.MaxFires {
		return Spec{}, false
	}
	if roll(site, fn, i.plan.Seed, seq, at) >= spec.Rate {
		return Spec{}, false
	}
	i.fires[k]++
	i.total[site]++
	return spec, true
}

// Counts returns the number of fires per site so far.
func (i *Injector) Counts() map[Site]int64 {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make(map[Site]int64, len(i.total))
	for s, n := range i.total {
		out[s] = n
	}
	return out
}

// Total returns the number of fires across all sites.
func (i *Injector) Total() int64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	var n int64
	for _, c := range i.total {
		n += c
	}
	return n
}

// roll maps (site, fn, seed, seq, at) to a uniform value in [0, 1).
func roll(site Site, fn string, seed int64, seq uint64, at simtime.Duration) float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(site))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(fn))
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], seq)
	binary.LittleEndian.PutUint64(buf[16:], uint64(at))
	_, _ = h.Write(buf[:])
	// Top 53 bits → exactly representable uniform double in [0, 1).
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// Typed sentinel errors the injection sites surface; degradation policies
// dispatch on them with errors.Is.
var (
	// ErrTierUnavailable is a slow-tier outage at restore — transient,
	// worth retrying.
	ErrTierUnavailable = errors.New("fault: slow tier unavailable")
	// ErrProfileStale marks a DAMON-derived placement as stale.
	ErrProfileStale = errors.New("fault: access profile stale")
)

// SiteError ties a fired fault to its site and function. It wraps the
// underlying typed error, so errors.Is sees through it.
type SiteError struct {
	Site     Site
	Function string
	Err      error
}

// Error formats the fault.
func (e *SiteError) Error() string {
	return fmt.Sprintf("fault at %s (%s): %v", e.Site, e.Function, e.Err)
}

// Unwrap exposes the wrapped typed error to errors.Is / errors.As.
func (e *SiteError) Unwrap() error { return e.Err }

// Errorf returns a SiteError wrapping err for a fired site.
func Errorf(site Site, fn string, err error) error {
	return &SiteError{Site: site, Function: fn, Err: err}
}

// SiteOf extracts the injection site from an error chain ("" when none).
func SiteOf(err error) Site {
	var se *SiteError
	if errors.As(err, &se) {
		return se.Site
	}
	return ""
}

// Retryable reports whether the fault is transient — worth retrying the
// restore before degrading. Corruption and staleness are not: retrying reads
// the same bad bytes or the same stale profile.
func Retryable(err error) bool {
	return errors.Is(err, ErrTierUnavailable)
}
