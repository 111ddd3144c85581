package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"toss/internal/guest"
	"toss/internal/mem"
)

// This file keeps the per-page Memory that the run-based image replaced —
// a map from each resident page to its digest, sorted again for every walk —
// with its writer, checksum and tiering, and the per-record image reader
// that the chunked one replaced, as the references the code must match bit
// for bit.

// mapMemory is the per-page memory image.
type mapMemory struct {
	GuestPages int64
	Pages      map[guest.PageID]PageDigest
}

// refDigestFor is DigestFor through a freshly allocated fnv-64a hasher.
func refDigestFor(function string, p guest.PageID) PageDigest {
	h := fnv.New64a()
	_, _ = io.WriteString(h, function)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(p))
	_, _ = h.Write(buf[:])
	return PageDigest(h.Sum64())
}

func newMapMemory(function string, guestPages int64, resident []guest.Region) *mapMemory {
	m := &mapMemory{GuestPages: guestPages, Pages: make(map[guest.PageID]PageDigest)}
	for _, r := range guest.NormalizeRegions(resident) {
		for p := r.Start; p < r.End(); p++ {
			m.Pages[p] = refDigestFor(function, p)
		}
	}
	return m
}

func (m *mapMemory) residentRegions() []guest.Region {
	ids := make([]guest.PageID, 0, len(m.Pages))
	for p := range m.Pages {
		ids = append(ids, p)
	}
	slices.Sort(ids)
	var regions []guest.Region
	for _, id := range ids {
		if n := len(regions); n > 0 && regions[n-1].End() == id {
			regions[n-1].Pages++
		} else {
			regions = append(regions, guest.Region{Start: id, Pages: 1})
		}
	}
	return regions
}

// encode writes the image as the per-page writer did: one reflective
// binary.Write per page.
func (m *mapMemory) encode(w io.Writer) error {
	if err := binary.Write(w, binary.LittleEndian, m.GuestPages); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int64(len(m.Pages))); err != nil {
		return err
	}
	for _, r := range m.residentRegions() {
		for p := r.Start; p < r.End(); p++ {
			if err := binary.Write(w, binary.LittleEndian, []uint64{uint64(p), uint64(m.Pages[p])}); err != nil {
				return err
			}
		}
	}
	return nil
}

// eachPage calls fn for every resident page of m and its digest in page
// order, stopping early if Pages holds fewer digests than Regions has pages:
// the walk the checksum and the writer made through a closure.
func eachPage(m *Memory, fn func(guest.PageID, PageDigest)) {
	i := 0
	for _, r := range m.Regions {
		for p := r.Start; p < r.End() && i < len(m.Pages); p++ {
			fn(p, m.Pages[i])
			i++
		}
	}
}

// pageMap converts a run-based image to the per-page form.
func pageMap(m *Memory) *mapMemory {
	out := &mapMemory{GuestPages: m.GuestPages, Pages: make(map[guest.PageID]PageDigest)}
	eachPage(m, func(p guest.PageID, d PageDigest) { out.Pages[p] = d })
	return out
}

// refDecodeSingle is decodeSingle over refReadMemory.
func refDecodeSingle(r io.Reader) (*Single, error) {
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
	if s.Memory, err = refReadMemory(r); err != nil {
		return nil, err
	}
	return s, nil
}

// refReadMemory reads an image one 16-byte record at a time, appending
// each page as a one-page region.
func refReadMemory(r io.Reader) (*Memory, error) {
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
	m := &Memory{GuestPages: guestPages, Pages: make([]PageDigest, 0, min(n, 1<<12))}
	var rec [16]byte
	prev := int64(-1)
	for i := int64(0); i < n; i++ {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return nil, fmt.Errorf("%w: page %d: %v", ErrCorrupt, i, err)
		}
		p := int64(binary.LittleEndian.Uint64(rec[:8]))
		if p < 0 || p >= guestPages {
			return nil, fmt.Errorf("%w: page id %d outside a %d-page guest", ErrCorrupt, p, guestPages)
		}
		if p <= prev {
			return nil, fmt.Errorf("%w: page id %d after %d: ids must increase", ErrCorrupt, p, prev)
		}
		prev = p
		m.appendPages(guest.Region{Start: guest.PageID(p), Pages: 1}, []PageDigest{PageDigest(binary.LittleEndian.Uint64(rec[8:]))})
	}
	return m, nil
}

// refTiered is a tiered snapshot over per-page images.
type refTiered struct {
	function   string
	guestPages int64
	entries    []LayoutEntry
	fast, slow *mapMemory
}

// refBuildTiered places each resident page one at a time.
func refBuildTiered(function string, m *mapMemory, placement *mem.MultiPlacement) *refTiered {
	t := &refTiered{
		function:   function,
		guestPages: m.GuestPages,
		fast:       &mapMemory{GuestPages: m.GuestPages, Pages: make(map[guest.PageID]PageDigest)},
		slow:       &mapMemory{GuestPages: m.GuestPages, Pages: make(map[guest.PageID]PageDigest)},
	}
	var fastOff, slowOff int64
	var pending *LayoutEntry
	flush := func() {
		if pending != nil {
			t.entries = append(t.entries, *pending)
			pending = nil
		}
	}
	for _, r := range m.residentRegions() {
		for p := r.Start; p < r.End(); p++ {
			tier := placement.LevelOf(p)
			img, off := t.fast, &fastOff
			if tier == mem.Slow {
				img, off = t.slow, &slowOff
			}
			img.Pages[p] = m.Pages[p]
			if pending != nil && pending.Tier == tier && pending.GuestStart+guest.PageID(pending.Pages) == p {
				pending.Pages++
			} else {
				flush()
				pending = &LayoutEntry{Tier: tier, FileOffsetPages: *off, GuestStart: p, Pages: 1}
			}
			*off++
		}
	}
	flush()
	return t
}

func (t *refTiered) checksum() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	_, _ = io.WriteString(h, t.function)
	w(uint64(t.guestPages))
	w(uint64(len(t.entries)))
	for _, e := range t.entries {
		w(uint64(e.Tier))
		w(uint64(e.FileOffsetPages))
		w(uint64(e.GuestStart))
		w(uint64(e.Pages))
	}
	for _, img := range []*mapMemory{t.fast, t.slow} {
		w(uint64(len(img.Pages)))
		for _, r := range img.residentRegions() {
			for p := r.Start; p < r.End(); p++ {
				w(uint64(p))
				w(uint64(img.Pages[p]))
			}
		}
	}
	return h.Sum64()
}

// refChecksum is the checksum the word hash replaced: each word's 8 bytes
// go to an fnv-64a hasher, walking the images through eachPage, so it also
// covers images whose regions outrun their digests or wrap past 2⁶³.
func refChecksum(t *Tiered) uint64 {
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
		eachPage(img, func(p guest.PageID, d PageDigest) {
			w(uint64(p))
			w(uint64(d))
		})
	}
	return h.Sum64()
}

func sameImage(t *testing.T, what string, got *Memory, want *mapMemory) {
	t.Helper()
	if got.GuestPages != want.GuestPages || !maps.Equal(pageMap(got).Pages, want.Pages) ||
		!slices.Equal(got.Regions, want.residentRegions()) {
		t.Fatalf("%s: image %v (%d digests) differs from the per-page reference %v",
			what, got.Regions, len(got.Pages), want.residentRegions())
	}
}

// randomRegions draws up to n regions inside [0, 200).
func randomRegions(rng *rand.Rand, n int) []guest.Region {
	rs := make([]guest.Region, rng.Intn(n+1))
	for i := range rs {
		rs[i] = guest.Region{Start: guest.PageID(rng.Intn(190)), Pages: int64(1 + rng.Intn(10))}
	}
	return rs
}

// TestMemoryMatchesMapReference builds random images and placements and
// compares the run-based image, its file bytes, its tiering and checksum
// with the per-page reference.
func TestMemoryMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		resident := randomRegions(rng, 12)
		s := &Single{Function: "fn", Memory: NewMemory("fn", 256, resident)}
		ref := newMapMemory("fn", 256, resident)
		sameImage(t, "NewMemory", s.Memory, ref)

		var got, want bytes.Buffer
		w := bufio.NewWriter(&got)
		if err := writeMemory(w, s.Memory); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := ref.encode(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("image %v encodes differently from the per-page writer", s.Memory.Regions)
		}

		placement := slowPlacement(s, randomRegions(rng, 6)...)
		ts := BuildTiered(s, placement)
		rt := refBuildTiered("fn", ref, placement)
		if !slices.Equal(ts.Entries, rt.entries) {
			t.Fatalf("entries %+v, reference %+v", ts.Entries, rt.entries)
		}
		sameImage(t, "fast tier", ts.FastMem, rt.fast)
		sameImage(t, "slow tier", ts.SlowMem, rt.slow)
		if ts.Sum != rt.checksum() {
			t.Fatalf("checksum %#x, reference %#x", ts.Sum, rt.checksum())
		}
	}
}

// TestChecksumPastTwoToThe24 reaches the word hash's long branch, which no
// 256-page guest does. Images on a guest of 2⁶³−1 pages whose regions
// straddle 2²⁴−1/2²⁴, sit at 2³² and end at 2⁶³−1 must match the per-page
// reference: digests, tiering and checksum. Hand-built snapshots with
// negative page ids and entries must checksum as the per-page reference
// does, and images whose regions outrun their digests or wrap past 2⁶³ as
// the closure walk the word hash replaced.
func TestChecksumPastTwoToThe24(t *testing.T) {
	const top = math.MaxInt64
	resident := []guest.Region{{Start: 1<<24 - 3, Pages: 6}, {Start: 1 << 32, Pages: 3}, {Start: top - 4, Pages: 4}}
	for _, slow := range [][]guest.Region{
		nil,
		{{Start: 1<<24 - 1, Pages: 2}},
		{{Start: 1 << 32, Pages: 1}, {Start: top - 2, Pages: 2}},
	} {
		s := &Single{Function: "fn", Memory: NewMemory("fn", top, resident)}
		ref := newMapMemory("fn", top, resident)
		sameImage(t, "NewMemory", s.Memory, ref)
		placement := slowPlacement(s, slow...)
		ts := BuildTiered(s, placement)
		rt := refBuildTiered("fn", ref, placement)
		if !slices.Equal(ts.Entries, rt.entries) {
			t.Fatalf("slow %v: entries %+v, reference %+v", slow, ts.Entries, rt.entries)
		}
		sameImage(t, "fast tier", ts.FastMem, rt.fast)
		sameImage(t, "slow tier", ts.SlowMem, rt.slow)
		if ts.Sum != rt.checksum() {
			t.Fatalf("slow %v: checksum %#x, reference %#x", slow, ts.Sum, rt.checksum())
		}
	}

	image := func(regions ...guest.Region) *Memory {
		m := &Memory{GuestPages: 8, Regions: regions}
		for _, r := range regions {
			for k := int64(0); k < min(r.Pages, 4); k++ {
				m.Pages = append(m.Pages, DigestFor("g", r.Start+guest.PageID(k)))
			}
		}
		return m
	}
	negative := &Tiered{Function: "g", GuestPages: 8,
		Entries: []LayoutEntry{{Tier: mem.Slow, FileOffsetPages: -1, GuestStart: -3, Pages: 3}, {Tier: -2, GuestStart: math.MinInt64, Pages: -9}},
		FastMem: image(guest.Region{Start: math.MinInt64, Pages: 2}, guest.Region{Start: -1 << 40, Pages: 1}),
		SlowMem: image(guest.Region{Start: -3, Pages: 3}, guest.Region{Start: 1 << 24, Pages: 1})}
	rt := &refTiered{function: negative.Function, guestPages: negative.GuestPages, entries: negative.Entries,
		fast: pageMap(negative.FastMem), slow: pageMap(negative.SlowMem)}
	if got, want := negative.Checksum(), rt.checksum(); got != want {
		t.Fatalf("negative ids: checksum %#x, reference %#x", got, want)
	}

	for _, odd := range []*Tiered{
		{Function: "outrun", FastMem: &Memory{Regions: []guest.Region{{Start: 4, Pages: 9}}, Pages: []PageDigest{1, 2}}},
		{Function: "wraps", FastMem: image(guest.Region{Start: top - 1, Pages: 3}, guest.Region{Start: 7, Pages: 2})},
		{Function: "wraps back", SlowMem: &Memory{Regions: []guest.Region{{Start: math.MinInt64 + 1, Pages: -5}}, Pages: []PageDigest{1, 2, 3}}},
		{Function: "empty regions", FastMem: image(guest.Region{Start: 3, Pages: 0}, guest.Region{Start: 5, Pages: -1}, guest.Region{Start: 9, Pages: 1})},
		{Function: "no images"},
	} {
		if got, want := odd.Checksum(), refChecksum(odd); got != want {
			t.Fatalf("%s: checksum %#x, closure walk %#x", odd.Function, got, want)
		}
	}
}

func TestDigestForMatchesHasher(t *testing.T) {
	for _, fn := range []string{"", "f", "json_load_dump"} {
		for _, p := range []guest.PageID{0, 1, 255, 256, 1<<24 - 1, 1 << 24, 1 << 32, 1 << 40, math.MaxInt64, -1, math.MinInt64} {
			if got, want := DigestFor(fn, p), refDigestFor(fn, p); got != want {
				t.Fatalf("DigestFor(%q, %d) = %#x, hasher gives %#x", fn, p, got, want)
			}
		}
	}
}

// DigestFor deterministically derives a page's digest from the owning
// function and page id, so round-trip tests can verify content integrity.
// It is fnv-64a over the function name and the id's 8 little-endian bytes:
// the digest Capture and NewMemory store, one page at a time.
func DigestFor(function string, p guest.PageID) PageDigest {
	return digestFrom(digestSeed(function), p)
}
