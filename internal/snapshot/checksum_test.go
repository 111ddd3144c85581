package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"toss/internal/guest"
	"toss/internal/mem"
)

func TestChecksumStableAndSensitive(t *testing.T) {
	s := buildTestSingle()
	placement := slowPlacement(s, guest.Region{Start: 5, Pages: 20})
	a := BuildTiered(s, placement)
	b := BuildTiered(s, placement)
	if a.Sum == 0 {
		t.Fatal("BuildTiered left Sum zero")
	}
	if a.Sum != b.Sum {
		t.Fatalf("same content, different sums: %#x vs %#x", a.Sum, b.Sum)
	}
	if a.Checksum() != a.Sum {
		t.Fatal("Checksum() disagrees with BuildTiered's Sum")
	}
	// Any content change moves the sum.
	c := BuildTiered(s, slowPlacement(s))
	if c.Sum == a.Sum {
		t.Fatal("different placement, same sum")
	}
}

func TestVerifyDetectsTamper(t *testing.T) {
	s := buildTestSingle()
	tiered := BuildTiered(s, slowPlacement(s, guest.Region{Start: 5, Pages: 20}))
	if err := tiered.Verify(tiered.Sum); err != nil {
		t.Fatalf("clean snapshot failed verify: %v", err)
	}
	tiered.SlowMem.Pages[0]++
	err := tiered.Verify(tiered.Sum)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered page passed verify: %v", err)
	}
}

func TestReadTieredRejectsTamperedTierFile(t *testing.T) {
	dir := t.TempDir()
	s := buildTestSingle()
	tiered := BuildTiered(s, slowPlacement(s, guest.Region{Start: 5, Pages: 20}))
	if err := WriteTiered(dir, tiered); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the fast tier image's page payload (past the
	// header/function/vmstate prefix) and expect ErrCorrupt.
	p := PathsIn(dir)
	data, err := os.ReadFile(p.Fast)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(p.Fast, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTiered(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered tier file accepted: %v", err)
	}
}

func TestReadTieredRejectsTruncatedTrailer(t *testing.T) {
	dir := t.TempDir()
	s := buildTestSingle()
	tiered := BuildTiered(s, slowPlacement(s, guest.Region{Start: 5, Pages: 20}))
	if err := WriteTiered(dir, tiered); err != nil {
		t.Fatal(err)
	}
	layout := filepath.Join(dir, "layout.toss")
	data, err := os.ReadFile(layout)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(layout, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTiered(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated trailer accepted: %v", err)
	}
}

func TestReadTieredPreservesSum(t *testing.T) {
	dir := t.TempDir()
	s := buildTestSingle()
	want := BuildTiered(s, slowPlacement(s, guest.Region{Start: 5, Pages: 20}))
	if err := WriteTiered(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTiered(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sum != want.Sum {
		t.Fatalf("Sum %#x round-tripped to %#x", want.Sum, got.Sum)
	}
}

// TestReadRejectsOutOfGuestContents writes hand-built snapshots whose
// layout entries or page ids fall outside the guest through the normal
// writers, and expects every reader to refuse them by naming the entry or
// the page: a restore would map such contents past the guest's last page.
// A hand-built snapshot's Sum is zero, so a writer that did not recompute
// its trailer would make every read fail on the checksum instead; the one
// hand-built snapshot inside the guest must read back.
func TestReadRejectsOutOfGuestContents(t *testing.T) {
	const guestPages = 256
	image := func(pages ...guest.PageID) *Memory {
		m := &Memory{GuestPages: guestPages}
		slices.Sort(pages)
		for _, p := range pages {
			m.appendPages(guest.Region{Start: p, Pages: 1}, []PageDigest{DigestFor("f", p)})
		}
		return m
	}
	for _, c := range []struct {
		name string
		e    LayoutEntry
	}{
		{"past the guest", LayoutEntry{Tier: mem.Slow, GuestStart: 10, Pages: 5000}},
		{"ends one late", LayoutEntry{Tier: mem.Fast, GuestStart: 200, Pages: 57}},
		{"negative start", LayoutEntry{Tier: mem.Slow, GuestStart: -1, Pages: 2}},
		{"empty", LayoutEntry{Tier: mem.Fast, GuestStart: 3, Pages: 0}},
		{"negative size", LayoutEntry{Tier: mem.Fast, GuestStart: 3, Pages: -4}},
		{"end overflows", LayoutEntry{Tier: mem.Slow, GuestStart: 1, Pages: math.MaxInt64}},
		{"unknown tier", LayoutEntry{Tier: 2, GuestStart: 0, Pages: 1}},
	} {
		dir := t.TempDir()
		ts := &Tiered{Function: "f", GuestPages: guestPages, Entries: []LayoutEntry{c.e},
			FastMem: image(), SlowMem: image()}
		if err := WriteTiered(dir, ts); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTiered(dir); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "entry 0 (") {
			t.Errorf("%s: entry %+v read back with err %v, want ErrCorrupt naming entry 0", c.name, c.e, err)
		}
	}

	inGuest := &Tiered{Function: "f", GuestPages: guestPages,
		Entries: []LayoutEntry{{Tier: mem.Slow, GuestStart: 0, Pages: 1}},
		FastMem: image(), SlowMem: image(0)}
	dir := t.TempDir()
	if err := WriteTiered(dir, inGuest); err != nil {
		t.Fatal(err)
	}
	if back, err := ReadTiered(dir); err != nil || back.Sum != inGuest.Checksum() {
		t.Fatalf("hand-built snapshot in the guest read back as %+v, err %v", back, err)
	}

	for _, p := range []guest.PageID{guestPages, -1} {
		dir := t.TempDir()
		ts := &Tiered{Function: "f", GuestPages: guestPages,
			Entries: []LayoutEntry{{Tier: mem.Slow, GuestStart: 0, Pages: 1}},
			FastMem: image(), SlowMem: image(0, p)}
		if err := WriteTiered(dir, ts); err != nil {
			t.Fatal(err)
		}
		page := fmt.Sprintf("page id %d outside", p)
		if _, err := ReadTiered(dir); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), page) {
			t.Errorf("tier image page %d read back with err %v, want ErrCorrupt naming the page", p, err)
		}
		path := filepath.Join(dir, "single.toss")
		if err := WriteSingle(path, &Single{Function: "f", Memory: image(p)}); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSingle(path); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), page) {
			t.Errorf("single-tier page %d read back with err %v, want ErrCorrupt naming the page", p, err)
		}
	}
}

// TestReadRefusesBuiltSnapshotChangedAfterBuild changes a BuildTiered
// snapshot's layout entries after the build, keeping them inside the guest.
// WriteTiered writes the Sum the build computed, which no longer covers the
// entries, so ReadTiered must refuse the files on the checksum; the
// unchanged snapshot must read back with that Sum.
func TestReadRefusesBuiltSnapshotChangedAfterBuild(t *testing.T) {
	s := buildTestSingle()
	for _, change := range []struct {
		name string
		edit func(*Tiered)
	}{
		{"none", func(*Tiered) {}},
		{"file offset", func(ts *Tiered) { ts.Entries[1].FileOffsetPages++ }},
		{"tier", func(ts *Tiered) { ts.Entries[0].Tier = mem.Slow }},
		{"entry dropped", func(ts *Tiered) { ts.Entries = ts.Entries[:len(ts.Entries)-1] }},
	} {
		ts := BuildTiered(s, slowPlacement(s, guest.Region{Start: 5, Pages: 20}))
		built := ts.Sum
		change.edit(ts)
		dir := t.TempDir()
		if err := WriteTiered(dir, ts); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTiered(dir)
		if change.name == "none" {
			if err != nil {
				t.Fatal(err)
			}
			if back.Sum != built {
				t.Fatalf("unchanged snapshot read back with Sum %#x, want %#x", back.Sum, built)
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Errorf("%s changed after build: read back as %+v, err %v; want a checksum mismatch", change.name, back, err)
		}
	}
}

// TestDecodeTieredRejectsImplausibleEntryCount: a layout may not claim a
// negative entry count, or more entries than the guest has pages, even
// when its checksum trailer vouches for what such a decoder would build.
func TestDecodeTieredRejectsImplausibleEntryCount(t *testing.T) {
	empty := &Memory{GuestPages: 1}
	negative := &Tiered{Function: "f", GuestPages: 1, FastMem: empty, SlowMem: empty}
	layout, fast, slow := encodeTieredBytes(t, negative)
	// The count follows the header (16 bytes), the name (8 + 1) and the
	// guest size (8).
	binary.LittleEndian.PutUint64(layout[33:], math.MaxUint64) // -1
	if got, err := decodeTiered(bytes.NewReader(layout), bytes.NewReader(fast), bytes.NewReader(slow)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("entry count -1 read back as %+v, err %v; want ErrCorrupt", got, err)
	}

	crowded := &Tiered{Function: "f", GuestPages: 1, FastMem: empty, SlowMem: empty,
		Entries: []LayoutEntry{{Tier: mem.Fast, Pages: 1}, {Tier: mem.Slow, Pages: 1}}}
	layout, fast, slow = encodeTieredBytes(t, crowded)
	if got, err := decodeTiered(bytes.NewReader(layout), bytes.NewReader(fast), bytes.NewReader(slow)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("two entries in a one-page guest read back as %+v, err %v; want ErrCorrupt", got, err)
	}
}
