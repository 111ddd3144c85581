package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"toss/internal/guest"
)

// mutate returns a copy of data with random bytes flipped, truncated, or
// with junk appended.
func mutate(rng *rand.Rand, data []byte) []byte {
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
	ts := BuildTiered(s, slowPlacement(s, guest.Region{Start: 5, Pages: 50}))
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

	// Mutate the files in path order, so the seeded sequence reproduces.
	paths := make([]string, 0, len(originals))
	for p := range originals {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for round := 0; round < 300; round++ {
		for _, path := range paths {
			if err := os.WriteFile(path, mutate(rng, originals[path]), 0o644); err != nil {
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

func encodeSingleBytes(t testing.TB, s *Single) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := encodeSingle(w, s); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameDecode fails unless decodeSingle and the per-record reference reader
// agree on one input: the same error text, or the same snapshot and the
// same number of bytes consumed. It returns decodeSingle's snapshot, the
// bytes it consumed and its error.
func sameDecode(t *testing.T, what string, data []byte) (*Single, []byte, error) {
	t.Helper()
	r, rr := bytes.NewReader(data), bytes.NewReader(data)
	got, err := decodeSingle(r)
	want, wantErr := refDecodeSingle(rr)
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, reference reader's %v", what, err, wantErr)
		}
		return nil, nil, err
	}
	g, w := got.Memory, want.Memory
	if got.Function != want.Function || got.VMStateBytes != want.VMStateBytes || g.GuestPages != w.GuestPages ||
		!slices.Equal(g.Regions, w.Regions) || !slices.Equal(g.Pages, w.Pages) {
		t.Fatalf("%s: read %+v (image %v, %d digests), reference reader %+v (image %v, %d digests)",
			what, got, g.Regions, len(g.Pages), want, w.Regions, len(w.Pages))
	}
	if r.Len() != rr.Len() {
		t.Fatalf("%s: consumed %d bytes, reference reader %d", what, len(data)-r.Len(), len(data)-rr.Len())
	}
	return got, data[:len(data)-r.Len()], nil
}

// TestDecodeSingleCutMatchesReference cuts single-tier files short and
// patches their records, and holds the chunked reader to the per-record
// reference on each: a two-region image cut at every byte length, and a
// 4,200-page image, whose records span two chunks, cut and patched around
// the chunk boundary. A cut between records fails as "page N: EOF", a cut
// inside one as "page N: unexpected EOF". Neither reader may consume the
// bytes that follow an image.
func TestDecodeSingleCutMatchesReference(t *testing.T) {
	cutAt := func(data []byte, records, cut int) {
		t.Helper()
		what := fmt.Sprintf("%d-page image cut at byte %d of %d", records, cut, len(data))
		_, _, err := sameDecode(t, what, data[:cut])
		head := len(data) - 16*records // the first record's offset
		if cut < head || cut == len(data) {
			return
		}
		want := fmt.Sprintf("page %d: EOF", (cut-head)/16)
		if (cut-head)%16 != 0 {
			want = fmt.Sprintf("page %d: unexpected EOF", (cut-head)/16)
		}
		if err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Fatalf("%s: error %v, want one ending %q", what, err, want)
		}
	}

	trailing := bytes.Repeat([]byte{0xa5}, 16*recordsPerChunk)
	small := &Single{Function: "f", Memory: NewMemory("f", 64, []guest.Region{{Start: 2, Pages: 3}, {Start: 40, Pages: 2}})}
	data := encodeSingleBytes(t, small)
	for cut := 0; cut <= len(data); cut++ {
		cutAt(data, 5, cut)
	}
	sameDecode(t, "two-region image and trailing bytes", append(data, trailing...))

	resident := []guest.Region{{Start: 0, Pages: 3000}, {Start: 3001, Pages: 1200}}
	big := &Single{Function: "f", Memory: NewMemory("f", 1<<14, resident)}
	data = encodeSingleBytes(t, big)
	var want bytes.Buffer
	if err := newMapMemory("f", 1<<14, resident).encode(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(data, want.Bytes()) {
		t.Fatal("a two-chunk image encodes differently from the per-page writer")
	}
	sameDecode(t, "two-chunk image and trailing bytes", append(data, trailing...))
	head, n := len(data)-want.Len()+16, 4200
	for _, k := range []int{0, 1, recordsPerChunk - 1, recordsPerChunk, recordsPerChunk + 1, n - 1, n} {
		for _, off := range []int{-1, 0, 1, 8, 15} {
			if cut := head + 16*k + off; cut >= 0 && cut <= len(data) {
				cutAt(data, n, cut)
			}
		}
	}
	// Records recordsPerChunk-1 and recordsPerChunk, pages 4096 and 4097,
	// are the last of one chunk and the first of the next.
	for _, id := range []uint64{4096, 4095, 1 << 14, math.MaxUint64} {
		patched := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(patched[head+16*recordsPerChunk:], id)
		if _, _, err := sameDecode(t, fmt.Sprintf("page id %d after the chunk boundary", id), patched); err == nil {
			t.Fatalf("page id %d after page 4096 accepted", id)
		}
	}
}

// FuzzDecodeSingle feeds arbitrary bytes to the single-tier decoder. It
// must never panic, must agree with the per-record reference reader (the
// same error text, or the same snapshot from the same bytes), every error
// must wrap ErrCorrupt, and an accepted input must re-encode to exactly the
// bytes the decoder consumed.
func FuzzDecodeSingle(f *testing.F) {
	rng := rand.New(rand.NewSource(99))
	for _, s := range []*Single{
		{Function: "fuzz", Memory: NewMemory("fuzz", 256, []guest.Region{{Start: 0, Pages: 30}, {Start: 100, Pages: 10}}), VMStateBytes: 4096},
		{Function: "f", Memory: NewMemory("f", 8, []guest.Region{{Start: 3, Pages: 2}})},
		{Function: "", Memory: NewMemory("", 0, nil)},
	} {
		data := encodeSingleBytes(f, s)
		f.Add(data)
		for i := 0; i < 4; i++ {
			f.Add(mutate(rng, data))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, consumed, err := sameDecode(t, "input", data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if again := encodeSingleBytes(t, s); !bytes.Equal(again, consumed) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(consumed), len(again))
		}
	})
}

// encodeTieredBytes encodes a tiered snapshot's three files in memory, as
// WriteTiered writes them.
func encodeTieredBytes(t testing.TB, ts *Tiered) (layout, fast, slow []byte) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := encodeLayout(w, ts); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(),
		encodeSingleBytes(t, &Single{Function: ts.Function, Memory: ts.FastMem}),
		encodeSingleBytes(t, &Single{Function: ts.Function, Memory: ts.SlowMem})
}

// FuzzReadTiered feeds arbitrary layout and tier-image bytes to the tiered
// decoder, seeded from WriteTiered's files and the random mutations
// TestReadersNeverPanicOnMutatedFiles applies. It must never panic, every
// error must wrap ErrCorrupt, an accepted snapshot's Sum must be the
// per-page reference's checksum of what was read, its layout must re-encode
// to exactly the layout bytes it consumed, and its re-encoded files must
// read back equal.
func FuzzReadTiered(f *testing.F) {
	rng := rand.New(rand.NewSource(99))
	dir := f.TempDir()
	for _, c := range []struct {
		s    *Single
		slow []guest.Region
	}{
		{&Single{Function: "fuzz", Memory: NewMemory("fuzz", 256, []guest.Region{{Start: 0, Pages: 30}, {Start: 100, Pages: 10}}), VMStateBytes: 4096},
			[]guest.Region{{Start: 5, Pages: 50}}},
		{&Single{Function: "f", Memory: NewMemory("f", 8, []guest.Region{{Start: 3, Pages: 2}})}, nil},
		{&Single{Function: "", Memory: NewMemory("", 1, nil)}, nil},
	} {
		if err := WriteTiered(dir, BuildTiered(c.s, slowPlacement(c.s, c.slow...))); err != nil {
			f.Fatal(err)
		}
		var files [3][]byte
		p := PathsIn(dir)
		for i, path := range []string{p.Layout, p.Fast, p.Slow} {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			files[i] = data
		}
		f.Add(files[0], files[1], files[2])
		for i := 0; i < 4; i++ {
			f.Add(mutate(rng, files[0]), mutate(rng, files[1]), mutate(rng, files[2]))
		}
	}
	f.Fuzz(func(t *testing.T, layout, fast, slow []byte) {
		r := bytes.NewReader(layout)
		ts, err := decodeTiered(r, bytes.NewReader(fast), bytes.NewReader(slow))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		ref := &refTiered{function: ts.Function, guestPages: ts.GuestPages, entries: ts.Entries,
			fast: pageMap(ts.FastMem), slow: pageMap(ts.SlowMem)}
		if want := ref.checksum(); ts.Sum != want {
			t.Fatalf("accepted snapshot has Sum %#x, reference checksum %#x", ts.Sum, want)
		}
		l2, f2, s2 := encodeTieredBytes(t, ts)
		if consumed := layout[:len(layout)-r.Len()]; !bytes.Equal(l2, consumed) {
			t.Fatalf("accepted %d layout bytes re-encode to %d different bytes", len(consumed), len(l2))
		}
		again, err := decodeTiered(bytes.NewReader(l2), bytes.NewReader(f2), bytes.NewReader(s2))
		if err != nil || !reflect.DeepEqual(again, ts) {
			t.Fatalf("re-encoded snapshot read back as %+v, err %v; want %+v", again, err, ts)
		}
	})
}

// TestDecodeRejectsUnorderedPageIDs patches the second page record of a
// two-page image to repeat the first id, or swaps the two ids. A decoder
// that took them would build a one-page image under a two-page header, or
// pair digests with the wrong pages; both must fail as ErrCorrupt, from a
// single-tier file and from a tier file whose layout checksum vouches for
// what such a decoder would build.
func TestDecodeRejectsUnorderedPageIDs(t *testing.T) {
	d3, d4 := DigestFor("f", 3), DigestFor("f", 4)
	patches := []struct {
		name     string
		ids      [2]uint64
		accepted *Memory // what a decoder ignoring id order would build
	}{
		{"repeated id", [2]uint64{3, 3}, &Memory{GuestPages: 8, Regions: []guest.Region{{Start: 3, Pages: 1}}, Pages: []PageDigest{d4}}},
		{"swapped ids", [2]uint64{4, 3}, &Memory{GuestPages: 8, Regions: []guest.Region{{Start: 3, Pages: 2}}, Pages: []PageDigest{d4, d3}}},
	}
	patch := func(data []byte, ids [2]uint64) {
		// The image ends with its two 16-byte (id, digest) records.
		binary.LittleEndian.PutUint64(data[len(data)-32:], ids[0])
		binary.LittleEndian.PutUint64(data[len(data)-16:], ids[1])
	}
	for _, c := range patches {
		dir := t.TempDir()
		single := filepath.Join(dir, "single.toss")
		s := &Single{Function: "f", Memory: NewMemory("f", 8, []guest.Region{{Start: 3, Pages: 2}})}
		data := encodeSingleBytes(t, s)
		patch(data, c.ids)
		if err := os.WriteFile(single, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := ReadSingle(single); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: single-tier file read back as %+v, err %v; want ErrCorrupt", c.name, got, err)
		}

		ts := BuildTiered(s, slowPlacement(s))
		if err := WriteTiered(dir, ts); err != nil {
			t.Fatal(err)
		}
		p := PathsIn(dir)
		fast, err := os.ReadFile(p.Fast)
		if err != nil {
			t.Fatal(err)
		}
		patch(fast, c.ids)
		layout, err := os.ReadFile(p.Layout)
		if err != nil {
			t.Fatal(err)
		}
		forged := *ts
		forged.FastMem = c.accepted
		binary.LittleEndian.PutUint64(layout[len(layout)-8:], forged.Checksum())
		if err := os.WriteFile(p.Fast, fast, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p.Layout, layout, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := ReadTiered(dir); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: tier file read back as %+v, err %v; want ErrCorrupt", c.name, got, err)
		}
	}
}
