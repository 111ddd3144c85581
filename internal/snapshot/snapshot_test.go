package snapshot

import (
	"bufio"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"toss/internal/guest"
	"toss/internal/mem"
)

// ReadSingle reads a single-tier snapshot file, as ReadTiered reads each
// tier image.
func ReadSingle(path string) (*Single, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeSingle(bufio.NewReader(f))
}

func TestDigestForDeterministicAndDistinct(t *testing.T) {
	a := DigestFor("fn", 1)
	if DigestFor("fn", 1) != a {
		t.Error("digest not deterministic")
	}
	if DigestFor("fn", 2) == a {
		t.Error("digest does not vary with page")
	}
	if DigestFor("other", 1) == a {
		t.Error("digest does not vary with function")
	}
}

func TestNewMemory(t *testing.T) {
	m := NewMemory("fn", 100, []guest.Region{{Start: 5, Pages: 3}, {Start: 7, Pages: 2}})
	if len(m.Pages) != 4 { // [5,9) after normalization
		t.Fatalf("resident pages = %d, want 4", len(m.Pages))
	}
	if m.Pages[0] != DigestFor("fn", 5) || m.Pages[3] != DigestFor("fn", 8) {
		t.Error("digest mismatch")
	}
	regs := m.ResidentRegions()
	if len(regs) != 1 || regs[0] != (guest.Region{Start: 5, Pages: 4}) {
		t.Errorf("ResidentRegions = %v", regs)
	}
	if m.ResidentBytes() != 4*guest.PageSize {
		t.Errorf("ResidentBytes = %d", m.ResidentBytes())
	}
}

func TestResidentRegionsMergesAdjacent(t *testing.T) {
	// Regions given out of order and adjacently must still yield one
	// merged, sorted region, with digests in page order.
	m := NewMemory("f", 64, []guest.Region{{Start: 7, Pages: 1}, {Start: 5, Pages: 1},
		{Start: 6, Pages: 1}, {Start: 20, Pages: 1}, {Start: 8, Pages: 1}})
	got := m.ResidentRegions()
	want := []guest.Region{{Start: 5, Pages: 4}, {Start: 20, Pages: 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("regions = %v, want %v", got, want)
	}
	for i, p := range []guest.PageID{5, 6, 7, 8, 20} {
		if m.Pages[i] != DigestFor("f", p) {
			t.Fatalf("digest %d is not page %d's", i, p)
		}
	}
}

func TestResidentRegionsEmpty(t *testing.T) {
	m := NewMemory("f", 8, nil)
	if got := m.ResidentRegions(); got != nil || len(m.Pages) != 0 {
		t.Fatalf("empty memory regions = %v with %d digests, want none", got, len(m.Pages))
	}
}

func TestSingleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "single.toss")
	s := &Single{
		Function:     "matmul",
		Memory:       NewMemory("matmul", 65536, []guest.Region{{Start: 0, Pages: 100}, {Start: 5000, Pages: 64}}),
		VMStateBytes: 1 << 20,
	}
	if err := WriteSingle(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSingle(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Function != "matmul" || got.VMStateBytes != 1<<20 || got.Memory.GuestPages != 65536 {
		t.Errorf("header mismatch: %+v", got)
	}
	if !slices.Equal(got.Memory.Regions, s.Memory.Regions) || !slices.Equal(got.Memory.Pages, s.Memory.Pages) {
		t.Fatalf("image %v (%d digests) read back as %v (%d digests)",
			s.Memory.Regions, len(s.Memory.Pages), got.Memory.Regions, len(got.Memory.Pages))
	}
}

func TestReadSingleRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.toss")

	// Truncated file.
	if err := os.WriteFile(path, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSingle(path); err == nil {
		t.Error("truncated file accepted")
	}

	// Wrong magic.
	buf := make([]byte, 64)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSingle(path); err == nil {
		t.Error("wrong magic accepted")
	}

	// Valid file, then truncate the tail.
	s := &Single{Function: "f", Memory: NewMemory("f", 100, []guest.Region{{Start: 0, Pages: 50}})}
	if err := WriteSingle(path, s); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSingle(path); err == nil {
		t.Error("truncated page table accepted")
	}
}

func TestReadSingleMissingFile(t *testing.T) {
	if _, err := ReadSingle(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing file accepted")
	}
}

func buildTestSingle() *Single {
	// Resident: [0,10) and [20,30); guest has 64 pages.
	return &Single{
		Function: "fn",
		Memory: NewMemory("fn", 64, []guest.Region{
			{Start: 0, Pages: 10}, {Start: 20, Pages: 10},
		}),
	}
}

// slowPlacement places the slow regions of s's guest in the slow tier and
// every other page in the fast tier.
func slowPlacement(s *Single, slow ...guest.Region) *mem.MultiPlacement {
	mp, err := mem.NewMultiPlacement(2, mem.Fast, s.Memory.GuestPages)
	if err != nil {
		panic(err)
	}
	mp.SetRegions(slow, mem.Slow)
	return mp
}

func TestBuildTieredPartition(t *testing.T) {
	s := buildTestSingle()
	// Slow: [5,25) -> resident slow pages are [5,10) and [20,25).
	placement := slowPlacement(s, guest.Region{Start: 5, Pages: 20})
	tiered := BuildTiered(s, placement)

	if len(tiered.FastMem.Pages) != 10 || len(tiered.SlowMem.Pages) != 10 {
		t.Fatalf("partition sizes fast=%d slow=%d, want 10/10",
			len(tiered.FastMem.Pages), len(tiered.SlowMem.Pages))
	}
	if tiered.SlowShare() != 0.5 {
		t.Errorf("SlowShare = %v, want 0.5", tiered.SlowShare())
	}
	// Expected entries: fast[0,5), slow[5,10), slow[20,25), fast[25,30) —
	// the two middle entries cannot merge because guest pages are not
	// contiguous across the [10,20) hole.
	if tiered.Regions() != 4 {
		t.Fatalf("Regions() = %d, want 4: %+v", tiered.Regions(), tiered.Entries)
	}
	// File offsets must be dense per tier.
	if e := tiered.Entries[0]; e.Tier != mem.Fast || e.FileOffsetPages != 0 || e.GuestStart != 0 || e.Pages != 5 {
		t.Errorf("entry 0 = %+v", e)
	}
	if e := tiered.Entries[1]; e.Tier != mem.Slow || e.FileOffsetPages != 0 || e.GuestStart != 5 || e.Pages != 5 {
		t.Errorf("entry 1 = %+v", e)
	}
	if e := tiered.Entries[2]; e.Tier != mem.Slow || e.FileOffsetPages != 5 || e.GuestStart != 20 || e.Pages != 5 {
		t.Errorf("entry 2 = %+v", e)
	}
	if e := tiered.Entries[3]; e.Tier != mem.Fast || e.FileOffsetPages != 5 || e.GuestStart != 25 || e.Pages != 5 {
		t.Errorf("entry 3 = %+v", e)
	}
}

// TestSeedPlacement maps the two-tier layout onto a 4-level hierarchy:
// fast entries at level 0, slow entries at level 2, non-resident pages at
// the bottom.
func TestSeedPlacement(t *testing.T) {
	s := buildTestSingle()
	tiered := BuildTiered(s, slowPlacement(s, guest.Region{Start: 5, Pages: 20}))
	mp, err := tiered.SeedPlacement(4, 0, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		page guest.PageID
		want int
	}{{0, 0}, {4, 0}, {5, 2}, {9, 2}, {10, 3}, {19, 3}, {20, 2}, {24, 2}, {25, 0}, {29, 0}, {30, 3}, {63, 3}} {
		if got := mp.LevelOf(tc.page); got != tc.want {
			t.Fatalf("LevelOf(%d) = %d, want %d", tc.page, got, tc.want)
		}
	}
	occ := make([]int64, 4)
	for level := range occ {
		for _, r := range mp.Regions(level) {
			occ[level] += r.Pages
		}
	}
	if occ[0] != 10 || occ[1] != 0 || occ[2] != 10 || occ[3] != 44 {
		t.Fatalf("pages per level = %v", occ)
	}
	if _, err := tiered.SeedPlacement(2, 0, 5, 1); err == nil {
		t.Fatal("out-of-range slow level accepted")
	}
}

func TestBuildTieredAllFast(t *testing.T) {
	s := buildTestSingle()
	tiered := BuildTiered(s, slowPlacement(s))
	if len(tiered.SlowMem.Pages) != 0 {
		t.Error("AllFast placement put pages in slow tier")
	}
	if tiered.Regions() != 2 {
		t.Errorf("Regions = %d, want 2 (two resident runs)", tiered.Regions())
	}
	if tiered.SlowShare() != 0 {
		t.Errorf("SlowShare = %v", tiered.SlowShare())
	}
}

func TestBuildTieredEmptySnapshot(t *testing.T) {
	s := &Single{Function: "f", Memory: NewMemory("f", 10, nil)}
	tiered := BuildTiered(s, slowPlacement(s))
	if tiered.Regions() != 0 || tiered.SlowShare() != 0 {
		t.Errorf("empty snapshot produced %d regions", tiered.Regions())
	}
}

func TestTieredRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := buildTestSingle()
	placement := slowPlacement(s, guest.Region{Start: 5, Pages: 20})
	want := BuildTiered(s, placement)
	if err := WriteTiered(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTiered(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Function != want.Function || got.GuestPages != want.GuestPages {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("entries %d vs %d", len(got.Entries), len(want.Entries))
	}
	for i := range want.Entries {
		if got.Entries[i] != want.Entries[i] {
			t.Errorf("entry %d: %+v vs %+v", i, got.Entries[i], want.Entries[i])
		}
	}
	for _, img := range [][2]*Memory{{got.FastMem, want.FastMem}, {got.SlowMem, want.SlowMem}} {
		if !slices.Equal(img[0].Regions, img[1].Regions) || !slices.Equal(img[0].Pages, img[1].Pages) {
			t.Fatalf("tier image %v read back as %v", img[1].Regions, img[0].Regions)
		}
	}
}

func TestReadTieredMissingFiles(t *testing.T) {
	if _, err := ReadTiered(t.TempDir()); err == nil {
		t.Error("missing layout accepted")
	}
}

// Property: for any placement, BuildTiered conserves pages (fast+slow =
// resident), assigns each page to the tier the placement dictates, and emits
// layout entries with dense per-tier file offsets covering exactly the
// resident pages.
func TestBuildTieredConservationProperty(t *testing.T) {
	f := func(residentRaw, slowRaw []uint8) bool {
		toRegions := func(raw []uint8) []guest.Region {
			var rs []guest.Region
			for _, x := range raw {
				rs = append(rs, guest.Region{Start: guest.PageID(x % 48), Pages: int64(x%6) + 1})
			}
			return rs
		}
		s := &Single{Function: "f", Memory: NewMemory("f", 64, toRegions(residentRaw))}
		placement := slowPlacement(s, toRegions(slowRaw)...)
		tiered := BuildTiered(s, placement)

		if len(tiered.FastMem.Pages)+len(tiered.SlowMem.Pages) != len(s.Memory.Pages) {
			return false
		}
		fast, slow := pageMap(tiered.FastMem).Pages, pageMap(tiered.SlowMem).Pages
		for p, d := range pageMap(s.Memory).Pages {
			img := fast
			if placement.LevelOf(p) == mem.Slow {
				img = slow
			}
			if got, ok := img[p]; !ok || got != d {
				return false
			}
		}
		var fastOff, slowOff int64
		var covered int64
		for _, e := range tiered.Entries {
			if e.Tier == mem.Fast {
				if e.FileOffsetPages != fastOff {
					return false
				}
				fastOff += e.Pages
			} else {
				if e.FileOffsetPages != slowOff {
					return false
				}
				slowOff += e.Pages
			}
			covered += e.Pages
		}
		return covered == int64(len(s.Memory.Pages))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
