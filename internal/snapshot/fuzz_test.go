package snapshot

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"toss/internal/guest"
	"toss/internal/mem"
)

// TestReadersNeverPanicOnMutatedFiles writes valid artifacts, then applies
// hundreds of random byte mutations and truncations; every reader must
// return an error or a value — never panic, never hang.
func TestReadersNeverPanicOnMutatedFiles(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(99))

	singlePath := filepath.Join(dir, "single.toss")
	s := &Single{
		Function: "fuzz",
		Memory: NewMemory("fuzz", 256, []guest.Region{
			{Start: 0, Pages: 30}, {Start: 100, Pages: 10},
		}),
		VMStateBytes: 4096,
	}
	if err := WriteSingle(singlePath, s); err != nil {
		t.Fatal(err)
	}
	tieredDir := filepath.Join(dir, "tiered")
	if err := os.MkdirAll(tieredDir, 0o755); err != nil {
		t.Fatal(err)
	}
	ts := BuildTiered(s, mem.NewPlacement([]guest.Region{{Start: 5, Pages: 50}}))
	if err := WriteTiered(tieredDir, ts); err != nil {
		t.Fatal(err)
	}

	originals := map[string][]byte{}
	for _, p := range []string{singlePath, PathsIn(tieredDir).Layout,
		PathsIn(tieredDir).Fast, PathsIn(tieredDir).Slow} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		originals[p] = data
	}

	mutate := func(data []byte) []byte {
		out := append([]byte(nil), data...)
		switch rng.Intn(3) {
		case 0: // flip random bytes
			for i := 0; i < 1+rng.Intn(8); i++ {
				out[rng.Intn(len(out))] ^= byte(1 + rng.Intn(255))
			}
		case 1: // truncate
			out = out[:rng.Intn(len(out))]
		case 2: // append junk
			junk := make([]byte, 1+rng.Intn(64))
			rng.Read(junk)
			out = append(out, junk...)
		}
		return out
	}

	// Mutate the files in path order, so the seeded sequence reproduces.
	paths := make([]string, 0, len(originals))
	for p := range originals {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for round := 0; round < 300; round++ {
		for _, path := range paths {
			if err := os.WriteFile(path, mutate(originals[path]), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// Readers may error; they must not panic (a panic fails the test).
		_, _ = ReadSingle(singlePath)
		_, _ = ReadTiered(tieredDir)
	}
}

// TestReadSingleBoundsHostileCounts ensures length fields cannot trigger
// huge allocations: a file claiming 2^40 pages must be rejected cheaply.
func TestReadSingleBoundsHostileCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hostile.toss")
	s := &Single{Function: "x", Memory: NewMemory("x", 64, []guest.Region{{Start: 0, Pages: 4}})}
	if err := WriteSingle(path, s); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	// The page count sits after header(16) + fnlen(8) + fn(1) +
	// vmstate(8) + guestPages(8); overwrite it with a huge value.
	off := 16 + 8 + 1 + 8 + 8
	for i := 0; i < 8; i++ {
		data[off+i] = 0xff
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSingle(path); err == nil {
		t.Error("hostile page count accepted")
	}
}
