package damon

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"toss/internal/guest"
)

// On-disk access-pattern files: TOSS stores every profiling invocation's
// DAMON output ("we use 100 DAMON files for each input that we include in
// our snapshots", §VI-A) plus the unified (max-merged) pattern.

const (
	magicPattern = 0x544F5353_44414D4F // "TOSSDAMO"
	magicUnified = 0x544F5353_554E4946 // "TOSSUNIF"
	fileVersion  = 1
)

// ErrCorrupt wraps all decode failures.
var ErrCorrupt = errors.New("damon: corrupt file")

// WritePattern serializes one invocation's access pattern.
func WritePattern(path string, p Pattern) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = writeHeader(w, magicPattern)
	if err == nil {
		err = binary.Write(w, binary.LittleEndian, int64(len(p.Records)))
	}
	for _, rec := range p.Records {
		if err != nil {
			break
		}
		err = binary.Write(w, binary.LittleEndian,
			[]int64{int64(rec.Region.Start), rec.Region.Pages, rec.NrAccesses})
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadPattern deserializes a pattern file.
func ReadPattern(path string) (Pattern, error) {
	f, err := os.Open(path)
	if err != nil {
		return Pattern{}, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	if err := readHeader(r, magicPattern); err != nil {
		return Pattern{}, err
	}
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return Pattern{}, fmt.Errorf("%w: record count: %v", ErrCorrupt, err)
	}
	// Bound the count by the bytes left (24 per record after the 24-byte
	// header and count) before allocating for it.
	st, err := f.Stat()
	if err != nil {
		return Pattern{}, err
	}
	if n < 0 || n > (st.Size()-24)/24 {
		return Pattern{}, fmt.Errorf("%w: record count %d does not fit in %d bytes", ErrCorrupt, n, st.Size())
	}
	p := Pattern{Records: make([]RegionRecord, 0, n)}
	for i := int64(0); i < n; i++ {
		var rec [3]int64
		if err := binary.Read(r, binary.LittleEndian, &rec); err != nil {
			return Pattern{}, fmt.Errorf("%w: record %d: %v", ErrCorrupt, i, err)
		}
		if rec[1] <= 0 {
			return Pattern{}, fmt.Errorf("%w: record %d has %d pages", ErrCorrupt, i, rec[1])
		}
		p.Records = append(p.Records, RegionRecord{
			Region:     guest.Region{Start: guest.PageID(rec[0]), Pages: rec[1]},
			NrAccesses: rec[2],
		})
	}
	return p, nil
}

// WriteUnified serializes a unified pattern file.
func WriteUnified(path string, u *Unified) error {
	counts := u.perPage.Sorted()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = writeHeader(w, magicUnified)
	if err == nil {
		err = binary.Write(w, binary.LittleEndian, int64(len(counts)))
	}
	for _, pc := range counts {
		if err != nil {
			break
		}
		err = binary.Write(w, binary.LittleEndian, []int64{int64(pc.Page), pc.Count})
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadUnified deserializes a unified pattern file.
func ReadUnified(path string) (*Unified, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	if err := readHeader(r, magicUnified); err != nil {
		return nil, err
	}
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: entry count: %v", ErrCorrupt, err)
	}
	if n < 0 || n > 1<<32 {
		return nil, fmt.Errorf("%w: implausible entry count %d", ErrCorrupt, n)
	}
	u := NewUnified()
	for i := int64(0); i < n; i++ {
		var rec [2]int64
		if err := binary.Read(r, binary.LittleEndian, &rec); err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrCorrupt, i, err)
		}
		u.perPage.Add(guest.PageID(rec[0]), rec[1])
	}
	return u, nil
}

func writeHeader(w io.Writer, magic uint64) error {
	return binary.Write(w, binary.LittleEndian, []uint64{magic, fileVersion})
}

func readHeader(r io.Reader, magic uint64) error {
	var hdr [2]uint64
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if hdr[0] != magic {
		return fmt.Errorf("%w: bad magic %#x", ErrCorrupt, hdr[0])
	}
	if hdr[1] != fileVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrCorrupt, hdr[1])
	}
	return nil
}
