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
	"io"
	"os"
	"path/filepath"
	"slices"

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

// fnv-64a's parameters. A page's digest is fnv-64a over the function name
// and the page id's 8 little-endian bytes, run inline (digestSeed, then
// digestFrom), so a captured image hashes its function name once and each
// page's id without a hasher. fnvPrime64x5 is the prime's fifth power mod
// 2⁶⁴, five zero bytes' worth of steps (see fnvWord).
const (
	fnvOffset64  = 14695981039346656037
	fnvPrime64   = 1099511628211
	fnvPrime64x5 = fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 % (1 << 64)
)

// digestSeed is fnv-64a's state after the function name.
func digestSeed(function string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(function); i++ {
		h ^= uint64(function[i])
		h *= fnvPrime64
	}
	return h
}

// digestFrom continues a digestSeed state with page p's id.
func digestFrom(h uint64, p guest.PageID) PageDigest {
	return PageDigest(fnvWord(h, uint64(p)))
}

// fnvWord continues fnv-64a state h with v's 8 little-endian bytes, one
// xor and one multiply by the prime per byte. A zero byte's step is the
// multiply alone, since h ^ 0 = h, so for v below 2²⁴ the five zero high
// bytes fold into one multiply by the prime's fifth power.
func fnvWord(h, v uint64) uint64 {
	h = (h ^ v&0xff) * fnvPrime64
	h = (h ^ v>>8&0xff) * fnvPrime64
	h = (h ^ v>>16&0xff) * fnvPrime64
	if v < 1<<24 {
		return h * fnvPrime64x5
	}
	for b, i := v>>24, 0; i < 5; b, i = b>>8, i+1 {
		h = (h ^ b&0xff) * fnvPrime64
	}
	return h
}

// Memory is a captured guest-memory image: the resident pages and their
// digests. Pages outside Regions were never touched (zero pages) and are
// not stored, mirroring Firecracker's sparse memory files.
type Memory struct {
	// GuestPages is the configured guest size in pages.
	GuestPages int64
	// Regions are the resident pages, normalized: sorted, disjoint and
	// never adjacent.
	Regions []guest.Region
	// Pages holds one content digest per resident page, in page order:
	// Regions[0]'s pages first, then Regions[1]'s, and so on. Its length
	// is the resident page count.
	Pages []PageDigest
}

// NewMemory captures an image for `function` covering the given resident
// regions of a guest with guestPages total pages.
func NewMemory(function string, guestPages int64, resident []guest.Region) *Memory {
	regions := guest.NormalizeRegions(resident)
	m := &Memory{GuestPages: guestPages, Regions: regions, Pages: make([]PageDigest, 0, guest.TotalPages(regions))}
	seed := digestSeed(function)
	for _, r := range regions {
		for p := r.Start; p < r.End(); p++ {
			m.Pages = append(m.Pages, digestFrom(seed, p))
		}
	}
	return m
}

// ResidentRegions returns the stored pages as normalized regions — the
// Regions field, shared: treat it as read-only.
func (m *Memory) ResidentRegions() []guest.Region { return m.Regions }

// ResidentBytes returns the represented (uncompressed) resident size.
func (m *Memory) ResidentBytes() int64 { return int64(len(m.Pages)) * guest.PageSize }

// appendPages appends pages r of a guest, with their digests, to m. r must
// start at or past the end of m's last region; it coalesces with that
// region when adjacent, keeping Regions normalized.
func (m *Memory) appendPages(r guest.Region, digests []PageDigest) {
	if n := len(m.Regions); n > 0 && m.Regions[n-1].End() == r.Start {
		m.Regions[n-1].Pages += r.Pages
	} else {
		m.Regions = append(m.Regions, r)
	}
	m.Pages = append(m.Pages, digests...)
}

// Single is a single-tier snapshot: the full memory image of a DRAM-only
// guest plus an opaque VM-state size (device model, registers, ...).
type Single struct {
	Function     string
	Memory       *Memory
	VMStateBytes int64
}

// WriteSingle serializes a single-tier snapshot to path.
func WriteSingle(path string, s *Single) error {
	return writeFile(path, func(w *bufio.Writer) error { return encodeSingle(w, s) })
}

func encodeSingle(w *bufio.Writer, s *Single) error {
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
}

// decodeSingle reads one single-tier snapshot from r, consuming exactly its
// bytes. Every decode failure wraps ErrCorrupt.
func decodeSingle(r io.Reader) (*Single, error) {
	if err := readHeader(r, magicSingle); err != nil {
		return nil, err
	}
	s := &Single{}
	var err error
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
	// Tier is the level holding the region: mem.Fast or mem.Slow.
	Tier int
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
//
// BuildTiered and ReadTiered also derive its restore view (see View) from
// the entries they return, once; every restore of the snapshot shares that
// view read-only, on any goroutine. So the exported fields must not change
// once a snapshot is built or read: the view would not follow them. A
// hand-built Tiered has no view, and each restore derives its own.
type Tiered struct {
	Function   string
	GuestPages int64
	Entries    []LayoutEntry
	FastMem    *Memory
	SlowMem    *Memory

	// Sum is the integrity checksum over the layout and both tier images
	// (Checksum), computed by BuildTiered and persisted as a trailer on the
	// layout file. ReadTiered recomputes and compares it, so bit rot in any
	// of the three files surfaces as ErrCorrupt instead of a silently wrong
	// restore. WriteTiered writes the Sum of a snapshot BuildTiered or
	// ReadTiered made as it is; a hand-built Tiered gets a recomputed
	// trailer, whatever its Sum holds.
	Sum uint64

	// view is the restore view BuildTiered or ReadTiered derived; nil for
	// a hand-built Tiered.
	view *RestoreView
}

// RestoreView is what a tiered restore maps, derived from the layout
// entries alone: the guest extents with contents in either tier file, the
// slow-tier extents a restore maps in place, and the two-tier placement a
// restored machine replays against. A view never changes once derived, so
// the machines restored from one snapshot share it and only read it.
type RestoreView struct {
	// Stored is every entry's guest region, normalized.
	Stored []guest.Region
	// Slow is the slow-tier entries' guest regions, normalized: the pages
	// resident (DAX-mapped) before a restored machine's first touch.
	Slow []guest.Region
	// SlowPages is the slow-tier entries' page count.
	SlowPages int64
	// Placement puts Slow in mem.Slow and every other page of a
	// GuestPages-page guest in mem.Fast. It is nil when GuestPages is not
	// positive.
	Placement *mem.MultiPlacement
}

// newRestoreView derives the restore view of a layout over a guest of
// guestPages pages.
func newRestoreView(entries []LayoutEntry, guestPages int64) *RestoreView {
	v := &RestoreView{}
	stored := make([]guest.Region, 0, len(entries))
	var slow []guest.Region
	for _, e := range entries {
		stored = append(stored, e.GuestRegion())
		if e.Tier == mem.Slow {
			slow = append(slow, e.GuestRegion())
			v.SlowPages += e.Pages
		}
	}
	v.Stored, v.Slow = guest.NormalizeRegions(stored), guest.NormalizeRegions(slow)
	if mp, err := mem.NewMultiPlacement(2, mem.Fast, guestPages); err == nil {
		mp.SetRegions(v.Slow, mem.Slow)
		v.Placement = mp
	}
	return v
}

// View returns the snapshot's restore view: the one BuildTiered or
// ReadTiered derived, shared, or for a hand-built Tiered a fresh one per
// call. Treat it as read-only.
func (t *Tiered) View() *RestoreView {
	if t.view != nil {
		return t.view
	}
	return newRestoreView(t.Entries, t.GuestPages)
}

// Checksum computes the snapshot's content checksum: an fnv-64a over the
// function name, guest size, every layout entry, and every page id and
// digest of both tier images in page order, each word as its 8
// little-endian bytes. It walks the images' regions and feeds the hash one
// word at a time (fnvWord): a page id below 2²⁴ costs four multiplies, not
// eight, because the step for a zero byte is a bare multiply by the prime.
func (t *Tiered) Checksum() uint64 {
	h := fnvWord(digestSeed(t.Function), uint64(t.GuestPages))
	h = fnvWord(h, uint64(len(t.Entries)))
	for _, e := range t.Entries {
		h = fnvWord(h, uint64(e.Tier))
		h = fnvWord(h, uint64(e.FileOffsetPages))
		h = fnvWord(h, uint64(e.GuestStart))
		h = fnvWord(h, uint64(e.Pages))
	}
	for _, img := range [...]*Memory{t.FastMem, t.SlowMem} {
		if img == nil {
			h = fnvWord(h, 0)
			continue
		}
		h = fnvWord(h, uint64(len(img.Pages)))
		i := 0
		for _, r := range img.Regions {
			ds := img.digests(r, i)
			for k, d := range ds {
				h = fnvWord(fnvWord(h, uint64(r.Start)+uint64(k)), uint64(d))
			}
			i += len(ds)
		}
	}
	return h
}

// digests returns region r's digests, given that the first i belong to the
// regions before it: one per page p with r.Start <= p < r.End(), cut short
// where Pages ends. A region whose end does not pass its start has none.
func (m *Memory) digests(r guest.Region, i int) []PageDigest {
	if r.End() <= r.Start {
		return nil
	}
	n := uint64(r.End()) - uint64(r.Start) // the pages in [Start, End), overflow-free
	return m.Pages[i : i+int(min(n, uint64(len(m.Pages)-i)))]
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
// according to a two-level placement, copying each region serially into the
// appropriate tier image and recording the layout, exactly as §V-D
// describes. It derives the snapshot's restore view once, from that layout.
func BuildTiered(s *Single, placement *mem.MultiPlacement) *Tiered {
	src := s.Memory
	// The segments of the resident regions, in page order, partition
	// src.Pages; counting each tier's pages first sizes both images once.
	segs := make([]mem.LevelSegment, 0, len(src.Regions))
	for _, r := range src.Regions {
		segs = placement.AppendSegments(segs, r)
	}
	var fastPages, slowPages int
	for _, sg := range segs {
		if sg.Level == mem.Slow {
			slowPages += int(sg.Region.Pages)
		} else {
			fastPages += int(sg.Region.Pages)
		}
	}
	t := &Tiered{
		Function:   s.Function,
		GuestPages: src.GuestPages,
		FastMem:    &Memory{GuestPages: src.GuestPages, Pages: make([]PageDigest, 0, fastPages)},
		SlowMem:    &Memory{GuestPages: src.GuestPages, Pages: make([]PageDigest, 0, slowPages)},
	}
	var fastOff, slowOff int64
	i := 0 // index in src.Pages of the current segment's first page
	for _, sg := range segs {
		img, off := t.FastMem, &fastOff
		if sg.Level == mem.Slow {
			img, off = t.SlowMem, &slowOff
		}
		img.appendPages(sg.Region, src.Pages[i:i+int(sg.Region.Pages)])
		i += int(sg.Region.Pages)
		// Extend the last entry when contiguous in both guest and file
		// space and same tier ("Bins Merging", §V-F).
		if n := len(t.Entries); n > 0 && t.Entries[n-1].Tier == sg.Level &&
			t.Entries[n-1].GuestRegion().End() == sg.Region.Start {
			t.Entries[n-1].Pages += sg.Region.Pages
		} else {
			t.Entries = append(t.Entries, LayoutEntry{
				Tier:            sg.Level,
				FileOffsetPages: *off,
				GuestStart:      sg.Region.Start,
				Pages:           sg.Region.Pages,
			})
		}
		*off += sg.Region.Pages
	}
	t.Sum = t.Checksum()
	t.view = newRestoreView(t.Entries, t.GuestPages)
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

// WriteTiered writes the layout and both tier images into dir. The layout's
// checksum trailer is Sum for a snapshot BuildTiered or ReadTiered made,
// which computed it over fields that must not change since, so a write
// hashes no page; a hand-built Tiered gets Checksum.
func WriteTiered(dir string, t *Tiered) error {
	p := PathsIn(dir)
	if err := writeFile(p.Layout, func(w *bufio.Writer) error { return encodeLayout(w, t) }); err != nil {
		return err
	}
	// Each tier image is a single-tier snapshot file with no VM state.
	if err := WriteSingle(p.Fast, &Single{Function: t.Function, Memory: t.FastMem}); err != nil {
		return err
	}
	return WriteSingle(p.Slow, &Single{Function: t.Function, Memory: t.SlowMem})
}

// encodeLayout writes the layout file: the function, the guest size, every
// entry, and the content checksum trailer.
func encodeLayout(w *bufio.Writer, t *Tiered) error {
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
	// Trailing content checksum over layout + both tier images: the Sum
	// BuildTiered or ReadTiered computed (they also derived the view), or a
	// fresh one for a hand-built snapshot.
	sum := t.Sum
	if t.view == nil {
		sum = t.Checksum()
	}
	return binary.Write(w, binary.LittleEndian, sum)
}

// ReadTiered loads a tiered snapshot from dir and derives its restore view
// once, from the layout read.
func ReadTiered(dir string) (*Tiered, error) {
	p := PathsIn(dir)
	var r [3]io.Reader
	for i, path := range []string{p.Layout, p.Fast, p.Slow} {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r[i] = bufio.NewReader(f)
	}
	return decodeTiered(r[0], r[1], r[2])
}

// decodeTiered reads a tiered snapshot from its layout file and its two
// tier images. Every decode failure wraps ErrCorrupt: each entry must name
// a tier and fit the guest, each image must decode, and the checksum
// trailer must match the snapshot read.
func decodeTiered(layout, fast, slow io.Reader) (*Tiered, error) {
	if err := readHeader(layout, magicLayout); err != nil {
		return nil, err
	}
	t := &Tiered{}
	var err error
	if t.Function, err = readString(layout); err != nil {
		return nil, err
	}
	if err := binary.Read(layout, binary.LittleEndian, &t.GuestPages); err != nil {
		return nil, fmt.Errorf("%w: guest pages: %v", ErrCorrupt, err)
	}
	var n int64
	if err := binary.Read(layout, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: entry count: %v", ErrCorrupt, err)
	}
	if n < 0 || n > t.GuestPages {
		return nil, fmt.Errorf("%w: implausible entry count %d", ErrCorrupt, n)
	}
	for i := int64(0); i < n; i++ {
		var rec [4]int64
		if err := binary.Read(layout, binary.LittleEndian, &rec); err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrCorrupt, i, err)
		}
		// A restore maps every entry into the guest, so an entry the
		// checksum vouches for must still name a tier and fit the guest.
		if rec[0] != int64(mem.Fast) && rec[0] != int64(mem.Slow) ||
			rec[2] < 0 || rec[3] <= 0 || rec[3] > t.GuestPages-rec[2] {
			return nil, fmt.Errorf("%w: entry %d (tier %d, %d pages at %d) outside a %d-page guest",
				ErrCorrupt, i, rec[0], rec[3], rec[2], t.GuestPages)
		}
		t.Entries = append(t.Entries, LayoutEntry{
			Tier:            int(rec[0]),
			FileOffsetPages: rec[1],
			GuestStart:      guest.PageID(rec[2]),
			Pages:           rec[3],
		})
	}
	if err := binary.Read(layout, binary.LittleEndian, &t.Sum); err != nil {
		return nil, fmt.Errorf("%w: checksum trailer: %v", ErrCorrupt, err)
	}
	fastImg, err := decodeSingle(fast)
	if err != nil {
		return nil, err
	}
	slowImg, err := decodeSingle(slow)
	if err != nil {
		return nil, err
	}
	t.FastMem, t.SlowMem = fastImg.Memory, slowImg.Memory
	if err := t.Verify(t.Sum); err != nil {
		return nil, err
	}
	t.view = newRestoreView(t.Entries, t.GuestPages)
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

func readString(r io.Reader) (string, error) {
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

// recordsPerChunk bounds how many 16-byte (page id, digest) records
// writeMemory encodes, and readMemory reads, per call into the stream.
const recordsPerChunk = 4096

func writeMemory(w *bufio.Writer, m *Memory) error {
	if resident := guest.TotalPages(m.Regions); resident != int64(len(m.Pages)) {
		return fmt.Errorf("snapshot: memory image has %d digests for %d resident pages", len(m.Pages), resident)
	}
	// The 16-byte header takes the first chunk's first record slot. Records
	// go out in page order, so files are deterministic.
	buf := make([]byte, 0, 16*min(len(m.Pages)+1, recordsPerChunk))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.GuestPages))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(m.Pages)))
	i := 0
	for _, r := range m.Regions {
		ds := m.digests(r, i)
		for k, d := range ds {
			if len(buf) == cap(buf) {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Start)+uint64(k))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(d))
		}
		i += len(ds)
	}
	_, err := w.Write(buf)
	return err
}

// readMemory decodes a memory image. Page ids must be inside the guest and
// strictly increasing, as the writer emits them, so the image decodes by
// extending its last run or starting a new one, and re-encodes to the same
// bytes. It reads the records in chunks but never past the image's last, so
// it consumes exactly the image's bytes. A cut file fails at the first
// record it cuts: "page N: EOF" between records, "page N: unexpected EOF"
// inside one.
func readMemory(r io.Reader) (*Memory, error) {
	var guestPages, n int64
	if err := binary.Read(r, binary.LittleEndian, &guestPages); err != nil {
		return nil, fmt.Errorf("%w: memory header: %v", ErrCorrupt, err)
	}
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: page count: %v", ErrCorrupt, err)
	}
	if n < 0 || (guestPages >= 0 && n > guestPages) {
		return nil, fmt.Errorf("%w: implausible page count %d for %d guest pages", ErrCorrupt, n, guestPages)
	}
	// The count is only plausible, not proven: size the digest slice from
	// what actually decodes. A chunk that does not fit at least doubles it,
	// up to the count, so a large image is copied a few times, not per chunk.
	m := &Memory{GuestPages: guestPages}
	buf := make([]byte, 16*min(n, recordsPerChunk))
	prev := int64(-1)
	for i := int64(0); i < n; {
		got, err := io.ReadFull(r, buf[:16*min(n-i, recordsPerChunk)])
		whole := got / 16
		if len(m.Pages)+whole > cap(m.Pages) {
			m.Pages = slices.Grow(m.Pages, min(max(whole, len(m.Pages)), int(n-i)))
		}
		for rec := buf[:16*whole]; len(rec) > 0; rec = rec[16:] {
			p := int64(binary.LittleEndian.Uint64(rec))
			if p < 0 || p >= guestPages {
				return nil, fmt.Errorf("%w: page id %d outside a %d-page guest", ErrCorrupt, p, guestPages)
			}
			if p <= prev {
				return nil, fmt.Errorf("%w: page id %d after %d: ids must increase", ErrCorrupt, p, prev)
			}
			if last := len(m.Regions) - 1; last >= 0 && p == prev+1 {
				m.Regions[last].Pages++
			} else {
				m.Regions = append(m.Regions, guest.Region{Start: guest.PageID(p), Pages: 1})
			}
			m.Pages = append(m.Pages, PageDigest(binary.LittleEndian.Uint64(rec[8:])))
			prev = p
		}
		if err != nil {
			if err == io.ErrUnexpectedEOF && got%16 == 0 {
				err = io.EOF // the cut falls between records
			}
			return nil, fmt.Errorf("%w: page %d: %v", ErrCorrupt, i+int64(whole), err)
		}
		i += int64(whole)
	}
	return m, nil
}
