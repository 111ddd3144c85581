package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"io"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"toss/internal/guest"
	"toss/internal/mem"
)

// This file keeps the per-page Memory that the run-based image replaced —
// a map from each resident page to its digest, sorted again for every walk —
// with its writer, checksum and tiering, as the reference the
// run-based code must match bit for bit.

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

// pageMap converts a run-based image to the per-page form.
func pageMap(m *Memory) *mapMemory {
	out := &mapMemory{GuestPages: m.GuestPages, Pages: make(map[guest.PageID]PageDigest)}
	m.eachPage(func(p guest.PageID, d PageDigest) { out.Pages[p] = d })
	return out
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

func TestDigestForMatchesHasher(t *testing.T) {
	for _, fn := range []string{"", "f", "json_load_dump"} {
		for _, p := range []guest.PageID{0, 1, 255, 256, 1 << 40, -1} {
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
