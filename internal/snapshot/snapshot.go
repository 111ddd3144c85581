// Package snapshot implements the on-disk snapshot artifacts TOSS and the
// baselines manage (§V-A, §V-D):
//
//   - a single-tier snapshot: the guest memory image captured after the
//     initial DRAM-only execution, plus the VM state blob;
//   - a tiered snapshot: two memory files (one per tier) and a layout file
//     recording, for every region, its tier, its offset within the tier
//     file, its offset within guest memory, and its size — exactly the
//     record the paper describes.
//
// Guest page *contents* are synthetic in this simulator (workloads are
// access-trace generators), so memory files store one 8-byte digest per page
// rather than 4 KiB of data. The formats are nonetheless real binary files
// with magic numbers, versioning, and integrity checks; all timing models
// use the represented guest sizes (pages x 4 KiB), never the compressed
// file sizes.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"toss/internal/guest"
	"toss/internal/mem"
)

// File magics and the format version.
const (
	magicSingle = 0x544F5353_534E4150 // "TOSSSNAP"
	magicLayout = 0x544F5353_4C415954 // "TOSSLAYT"
	version     = 1
)

// ErrCorrupt is wrapped by all decode failures.
var ErrCorrupt = errors.New("snapshot: corrupt file")

// PageDigest is the synthetic 8-byte stand-in for a page's 4 KiB contents.
type PageDigest uint64

// DigestFor deterministically derives a page's digest from the owning
// function and page id, so round-trip tests can verify content integrity.
func DigestFor(function string, p guest.PageID) PageDigest {
	h := fnv.New64a()
	_, _ = io.WriteString(h, function)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(p))
	_, _ = h.Write(buf[:])
	return PageDigest(h.Sum64())
}

// Memory is a captured guest-memory image: the resident pages and their
// digests. Pages absent from the map were never touched (zero pages) and
// are not stored, mirroring Firecracker's sparse memory files.
type Memory struct {
	// GuestPages is the configured guest size in pages.
	GuestPages int64
	// Pages maps each resident page to its content digest.
	Pages map[guest.PageID]PageDigest

	// ResidentRegions cache. Pages only ever grows (capture, decode, and
	// tier partitioning all append), so a stale cache is detectable from
	// the map length alone.
	regionMu    sync.Mutex
	regions     []guest.Region
	regionPages int
}

// NewMemory captures an image for `function` covering the given resident
// regions of a guest with guestPages total pages.
func NewMemory(function string, guestPages int64, resident []guest.Region) *Memory {
	m := &Memory{GuestPages: guestPages, Pages: make(map[guest.PageID]PageDigest)}
	for _, r := range guest.NormalizeRegions(resident) {
		for p := r.Start; p < r.End(); p++ {
			m.Pages[p] = DigestFor(function, p)
		}
	}
	return m
}

// ResidentRegions returns the stored pages as normalized regions.
//
// The result is memoized and shared between callers — treat it as
// read-only. Every lazy restore walks these regions, so recomputing the
// sort per restore used to dominate the restore-heavy sweeps.
func (m *Memory) ResidentRegions() []guest.Region {
	m.regionMu.Lock()
	defer m.regionMu.Unlock()
	if m.regions != nil && m.regionPages == len(m.Pages) {
		return m.regions
	}
	ids := make([]int64, 0, len(m.Pages))
	for p := range m.Pages {
		ids = append(ids, int64(p))
	}
	slices.Sort(ids)
	var regions []guest.Region
	for _, id := range ids {
		if n := len(regions); n > 0 && regions[n-1].End() == guest.PageID(id) {
			regions[n-1].Pages++
		} else {
			regions = append(regions, guest.Region{Start: guest.PageID(id), Pages: 1})
		}
	}
	m.regions = regions
	m.regionPages = len(m.Pages)
	return regions
}

// ResidentBytes returns the represented (uncompressed) resident size.
func (m *Memory) ResidentBytes() int64 { return int64(len(m.Pages)) * guest.PageSize }

// Single is a single-tier snapshot: the full memory image of a DRAM-only
// guest plus an opaque VM-state size (device model, registers, ...).
type Single struct {
	Function     string
	Memory       *Memory
	VMStateBytes int64
}

// WriteSingle serializes a single-tier snapshot to path.
func WriteSingle(path string, s *Single) error {
	return writeFile(path, func(w *bufio.Writer) error {
		if err := writeHeader(w, magicSingle); err != nil {
			return err
		}
		if err := writeString(w, s.Function); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, s.VMStateBytes); err != nil {
			return err
		}
		return writeMemory(w, s.Memory)
	})
}

// ReadSingle deserializes a single-tier snapshot.
func ReadSingle(path string) (*Single, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	if err := readHeader(r, magicSingle); err != nil {
		return nil, err
	}
	s := &Single{}
	if s.Function, err = readString(r); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &s.VMStateBytes); err != nil {
		return nil, fmt.Errorf("%w: vm state size: %v", ErrCorrupt, err)
	}
	if s.Memory, err = readMemory(r); err != nil {
		return nil, err
	}
	return s, nil
}

// LayoutEntry describes one region of the tiered snapshot: which tier file
// holds it, where within that file, where it sits in guest memory, and its
// size — the paper's memory-layout record (§V-D).
type LayoutEntry struct {
	Tier mem.Tier
	// FileOffsetPages is the region's offset within its tier's memory
	// file, in pages.
	FileOffsetPages int64
	// GuestStart is the region's first page in guest memory.
	GuestStart guest.PageID
	// Pages is the region length.
	Pages int64
}

// GuestRegion returns the guest-side region the entry covers.
func (e LayoutEntry) GuestRegion() guest.Region {
	return guest.Region{Start: e.GuestStart, Pages: e.Pages}
}

// Tiered is a tiered snapshot: the layout plus one memory image per tier.
type Tiered struct {
	Function   string
	GuestPages int64
	Entries    []LayoutEntry
	FastMem    *Memory
	SlowMem    *Memory

	// Sum is the integrity checksum over the layout and both tier images,
	// computed by BuildTiered and persisted as a trailer on the layout
	// file. ReadTiered recomputes and compares it, so bit rot in any of
	// the three files surfaces as ErrCorrupt instead of a silently wrong
	// restore.
	Sum uint64
}

// Checksum computes the snapshot's content checksum: an fnv-64a over the
// function name, guest size, every layout entry, and every page digest of
// both tier images in region order. Region order makes it deterministic
// for a given content regardless of map iteration.
func (t *Tiered) Checksum() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	_, _ = io.WriteString(h, t.Function)
	w(uint64(t.GuestPages))
	w(uint64(len(t.Entries)))
	for _, e := range t.Entries {
		w(uint64(e.Tier))
		w(uint64(e.FileOffsetPages))
		w(uint64(e.GuestStart))
		w(uint64(e.Pages))
	}
	for _, img := range []*Memory{t.FastMem, t.SlowMem} {
		if img == nil {
			w(0)
			continue
		}
		w(uint64(len(img.Pages)))
		for _, r := range img.ResidentRegions() {
			for p := r.Start; p < r.End(); p++ {
				w(uint64(p))
				w(uint64(img.Pages[p]))
			}
		}
	}
	return h.Sum64()
}

// Verify recomputes the checksum and compares it against want, returning a
// wrapped ErrCorrupt on mismatch.
func (t *Tiered) Verify(want uint64) error {
	if got := t.Checksum(); got != want {
		return fmt.Errorf("%w: tiered checksum mismatch: got %#x want %#x", ErrCorrupt, got, want)
	}
	return nil
}

// BuildTiered partitions a single-tier snapshot between the two tiers
// according to placement, copying each region serially into the appropriate
// tier image and recording the layout, exactly as §V-D describes. Resident
// pages not covered by any slow region stay in the fast tier.
func BuildTiered(s *Single, placement *mem.Placement) *Tiered {
	t := &Tiered{
		Function:   s.Function,
		GuestPages: s.Memory.GuestPages,
		FastMem:    &Memory{GuestPages: s.Memory.GuestPages, Pages: make(map[guest.PageID]PageDigest)},
		SlowMem:    &Memory{GuestPages: s.Memory.GuestPages, Pages: make(map[guest.PageID]PageDigest)},
	}
	resident := s.Memory.ResidentRegions()
	var fastOff, slowOff int64
	var pending *LayoutEntry
	flush := func() {
		if pending != nil {
			t.Entries = append(t.Entries, *pending)
			pending = nil
		}
	}
	for _, r := range resident {
		for p := r.Start; p < r.End(); p++ {
			tier := placement.TierOf(p)
			img, off := t.FastMem, &fastOff
			if tier == mem.Slow {
				img, off = t.SlowMem, &slowOff
			}
			img.Pages[p] = s.Memory.Pages[p]
			// Extend the pending entry when contiguous in both guest and
			// file space and same tier ("Bins Merging", §V-F).
			if pending != nil && pending.Tier == tier &&
				pending.GuestStart+guest.PageID(pending.Pages) == p {
				pending.Pages++
			} else {
				flush()
				pending = &LayoutEntry{
					Tier:            tier,
					FileOffsetPages: *off,
					GuestStart:      p,
					Pages:           1,
				}
			}
			*off++
		}
	}
	flush()
	t.Sum = t.Checksum()
	return t
}

// SlowShare returns the fraction of resident pages placed in the slow tier.
func (t *Tiered) SlowShare() float64 {
	total := len(t.FastMem.Pages) + len(t.SlowMem.Pages)
	if total == 0 {
		return 0
	}
	return float64(len(t.SlowMem.Pages)) / float64(total)
}

// Regions returns the number of layout entries (memory mappings at restore).
func (t *Tiered) Regions() int { return len(t.Entries) }

// SeedPlacement maps the tiered layout onto an N-tier hierarchy placement
// (TIERS.md): fast-tier entries land at fastLevel, slow-tier entries at
// slowLevel, and non-resident pages at bottomLevel (typically the
// hierarchy's unbounded bottom — they are faulted from the snapshot store).
// This is how the migration engine is seeded from a restored snapshot:
// TOSS's two-tier split is the initial condition, migration takes it from
// there.
func (t *Tiered) SeedPlacement(levels, fastLevel, slowLevel, bottomLevel int) (*mem.MultiPlacement, error) {
	mp, err := mem.NewMultiPlacement(levels, bottomLevel, t.GuestPages)
	if err != nil {
		return nil, err
	}
	for _, e := range t.Entries {
		level := fastLevel
		if e.Tier == mem.Slow {
			level = slowLevel
		}
		if level < 0 || level >= levels {
			return nil, fmt.Errorf("snapshot: tier %v maps to level %d outside [0,%d)", e.Tier, level, levels)
		}
		mp.Set(e.GuestRegion(), level)
	}
	return mp, nil
}

// Paths groups the three files of an on-disk tiered snapshot.
type Paths struct {
	Layout string
	Fast   string
	Slow   string
}

// PathsIn returns the conventional file names inside dir.
func PathsIn(dir string) Paths {
	return Paths{
		Layout: filepath.Join(dir, "layout.toss"),
		Fast:   filepath.Join(dir, "mem_fast.toss"),
		Slow:   filepath.Join(dir, "mem_slow.toss"),
	}
}

// WriteTiered writes the layout and both tier images into dir.
func WriteTiered(dir string, t *Tiered) error {
	p := PathsIn(dir)
	if err := writeFile(p.Layout, func(w *bufio.Writer) error {
		if err := writeHeader(w, magicLayout); err != nil {
			return err
		}
		if err := writeString(w, t.Function); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, t.GuestPages); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, int64(len(t.Entries))); err != nil {
			return err
		}
		for _, e := range t.Entries {
			rec := []int64{int64(e.Tier), e.FileOffsetPages, int64(e.GuestStart), e.Pages}
			if err := binary.Write(w, binary.LittleEndian, rec); err != nil {
				return err
			}
		}
		// Trailing content checksum over layout + both tier images.
		return binary.Write(w, binary.LittleEndian, t.Checksum())
	}); err != nil {
		return err
	}
	// Each tier image is a single-tier snapshot file with no VM state.
	if err := WriteSingle(p.Fast, &Single{Function: t.Function, Memory: t.FastMem}); err != nil {
		return err
	}
	return WriteSingle(p.Slow, &Single{Function: t.Function, Memory: t.SlowMem})
}

// ReadTiered loads a tiered snapshot from dir.
func ReadTiered(dir string) (*Tiered, error) {
	p := PathsIn(dir)
	t := &Tiered{}
	f, err := os.Open(p.Layout)
	if err != nil {
		return nil, err
	}
	r := bufio.NewReader(f)
	if err := readHeader(r, magicLayout); err != nil {
		f.Close()
		return nil, err
	}
	if t.Function, err = readString(r); err != nil {
		f.Close()
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &t.GuestPages); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: guest pages: %v", ErrCorrupt, err)
	}
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: entry count: %v", ErrCorrupt, err)
	}
	if n < 0 || n > t.GuestPages {
		f.Close()
		return nil, fmt.Errorf("%w: implausible entry count %d", ErrCorrupt, n)
	}
	for i := int64(0); i < n; i++ {
		var rec [4]int64
		if err := binary.Read(r, binary.LittleEndian, &rec); err != nil {
			f.Close()
			return nil, fmt.Errorf("%w: entry %d: %v", ErrCorrupt, i, err)
		}
		// A restore maps every entry into the guest, so an entry the
		// checksum vouches for must still name a tier and fit the guest.
		if rec[0] != int64(mem.Fast) && rec[0] != int64(mem.Slow) ||
			rec[2] < 0 || rec[3] <= 0 || rec[3] > t.GuestPages-rec[2] {
			f.Close()
			return nil, fmt.Errorf("%w: entry %d (tier %d, %d pages at %d) outside a %d-page guest",
				ErrCorrupt, i, rec[0], rec[3], rec[2], t.GuestPages)
		}
		t.Entries = append(t.Entries, LayoutEntry{
			Tier:            mem.Tier(rec[0]),
			FileOffsetPages: rec[1],
			GuestStart:      guest.PageID(rec[2]),
			Pages:           rec[3],
		})
	}
	if err := binary.Read(r, binary.LittleEndian, &t.Sum); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: checksum trailer: %v", ErrCorrupt, err)
	}
	f.Close()

	loadMem := func(path string) (*Memory, error) {
		s, err := ReadSingle(path)
		if err != nil {
			return nil, err
		}
		return s.Memory, nil
	}
	if t.FastMem, err = loadMem(p.Fast); err != nil {
		return nil, err
	}
	if t.SlowMem, err = loadMem(p.Slow); err != nil {
		return nil, err
	}
	if err := t.Verify(t.Sum); err != nil {
		return nil, err
	}
	return t, nil
}

// --- low-level helpers ---

func writeFile(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeHeader(w io.Writer, magic uint64) error {
	return binary.Write(w, binary.LittleEndian, []uint64{magic, version})
}

func readHeader(r io.Reader, magic uint64) error {
	var hdr [2]uint64
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if hdr[0] != magic {
		return fmt.Errorf("%w: bad magic %#x", ErrCorrupt, hdr[0])
	}
	if hdr[1] != version {
		return fmt.Errorf("%w: unsupported version %d", ErrCorrupt, hdr[1])
	}
	return nil
}

func writeString(w *bufio.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, int64(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readString(r *bufio.Reader) (string, error) {
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", fmt.Errorf("%w: string length: %v", ErrCorrupt, err)
	}
	if n < 0 || n > 1<<20 {
		return "", fmt.Errorf("%w: implausible string length %d", ErrCorrupt, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("%w: string body: %v", ErrCorrupt, err)
	}
	return string(buf), nil
}

func writeMemory(w *bufio.Writer, m *Memory) error {
	if err := binary.Write(w, binary.LittleEndian, m.GuestPages); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int64(len(m.Pages))); err != nil {
		return err
	}
	// Serialize in page order for deterministic files.
	regions := m.ResidentRegions()
	for _, r := range regions {
		for p := r.Start; p < r.End(); p++ {
			rec := []uint64{uint64(p), uint64(m.Pages[p])}
			if err := binary.Write(w, binary.LittleEndian, rec); err != nil {
				return err
			}
		}
	}
	return nil
}

func readMemory(r *bufio.Reader) (*Memory, error) {
	m := &Memory{Pages: make(map[guest.PageID]PageDigest)}
	if err := binary.Read(r, binary.LittleEndian, &m.GuestPages); err != nil {
		return nil, fmt.Errorf("%w: memory header: %v", ErrCorrupt, err)
	}
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: page count: %v", ErrCorrupt, err)
	}
	if n < 0 || (m.GuestPages >= 0 && n > m.GuestPages) {
		return nil, fmt.Errorf("%w: implausible page count %d for %d guest pages", ErrCorrupt, n, m.GuestPages)
	}
	for i := int64(0); i < n; i++ {
		var rec [2]uint64
		if err := binary.Read(r, binary.LittleEndian, &rec); err != nil {
			return nil, fmt.Errorf("%w: page %d: %v", ErrCorrupt, i, err)
		}
		if p := int64(rec[0]); p < 0 || p >= m.GuestPages {
			return nil, fmt.Errorf("%w: page id %d outside a %d-page guest", ErrCorrupt, p, m.GuestPages)
		}
		m.Pages[guest.PageID(rec[0])] = PageDigest(rec[1])
	}
	return m, nil
}
