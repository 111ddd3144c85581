package snapshot

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"toss/internal/guest"
	"toss/internal/mem"
)

func TestChecksumStableAndSensitive(t *testing.T) {
	s := buildTestSingle()
	placement := mem.NewPlacement([]guest.Region{{Start: 5, Pages: 20}})
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
	c := BuildTiered(s, mem.AllFast())
	if c.Sum == a.Sum {
		t.Fatal("different placement, same sum")
	}
}

func TestVerifyDetectsTamper(t *testing.T) {
	s := buildTestSingle()
	tiered := BuildTiered(s, mem.NewPlacement([]guest.Region{{Start: 5, Pages: 20}}))
	if err := tiered.Verify(tiered.Sum); err != nil {
		t.Fatalf("clean snapshot failed verify: %v", err)
	}
	for p := range tiered.SlowMem.Pages {
		tiered.SlowMem.Pages[p]++
		break
	}
	err := tiered.Verify(tiered.Sum)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered page passed verify: %v", err)
	}
}

func TestReadTieredRejectsTamperedTierFile(t *testing.T) {
	dir := t.TempDir()
	s := buildTestSingle()
	tiered := BuildTiered(s, mem.NewPlacement([]guest.Region{{Start: 5, Pages: 20}}))
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
	tiered := BuildTiered(s, mem.NewPlacement([]guest.Region{{Start: 5, Pages: 20}}))
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
	want := BuildTiered(s, mem.NewPlacement([]guest.Region{{Start: 5, Pages: 20}}))
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

// TestReadRejectsOutOfGuestContents writes snapshots whose layout entries or
// page ids fall outside the guest through the normal writers, so their
// checksums are consistent, and expects every reader to refuse them: a
// restore would map such contents past the guest's last page.
func TestReadRejectsOutOfGuestContents(t *testing.T) {
	const guestPages = 256
	image := func(pages ...guest.PageID) *Memory {
		m := &Memory{GuestPages: guestPages, Pages: map[guest.PageID]PageDigest{}}
		for _, p := range pages {
			m.Pages[p] = DigestFor("f", p)
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
		{"unknown tier", LayoutEntry{Tier: mem.Tier(2), GuestStart: 0, Pages: 1}},
	} {
		dir := t.TempDir()
		ts := &Tiered{Function: "f", GuestPages: guestPages, Entries: []LayoutEntry{c.e},
			FastMem: image(), SlowMem: image()}
		if err := WriteTiered(dir, ts); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTiered(dir); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: entry %+v read back with err %v, want ErrCorrupt", c.name, c.e, err)
		}
	}

	for _, p := range []guest.PageID{guestPages, -1} {
		dir := t.TempDir()
		ts := &Tiered{Function: "f", GuestPages: guestPages,
			Entries: []LayoutEntry{{Tier: mem.Slow, GuestStart: 0, Pages: 1}},
			FastMem: image(), SlowMem: image(0, p)}
		if err := WriteTiered(dir, ts); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTiered(dir); !errors.Is(err, ErrCorrupt) {
			t.Errorf("tier image page %d read back with err %v, want ErrCorrupt", p, err)
		}
		path := filepath.Join(dir, "single.toss")
		if err := WriteSingle(path, &Single{Function: "f", Memory: image(p)}); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSingle(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("single-tier page %d read back with err %v, want ErrCorrupt", p, err)
		}
	}
}
