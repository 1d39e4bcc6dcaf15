package vexec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"

	"disco/internal/types"
)

// Grace-style spill partitioning for the hash join and aggregation
// breakers. When a breaker's tracked input exceeds Options.MemBytes it
// redistributes rows into spillFanout tempdir files by key hash,
// processes each partition independently (recursing with a different
// hash-bit window when a join partition is itself over budget), and
// concatenates the partition outputs. Row values stay bit-identical —
// within a partition rows keep their input order, so float accumulation
// order is preserved — but the overall output order becomes
// partition-major, i.e. a multiset-identical permutation of the
// in-memory result.
//
// A spill file is a sequence of rows, each framed as uvarint column
// count, uvarint byte length, then that many bytes of values in the
// types value codec (the one the wire's result blocks use).

const (
	// spillFanout is the partition count per spill level.
	spillFanout = 8
	// maxSpillLevels bounds recursive repartitioning; a partition still
	// over budget at the last level (every row sharing one key, say) is
	// processed in memory — correctness over budget adherence.
	maxSpillLevels = 4
)

// testSpillWriteErr, when non-nil, is consulted before every spill row
// write; tests inject write failures through it to prove the error
// surfaces cleanly instead of a partial result. Guarded by design: spill
// partitioning phases are single-threaded.
var testSpillWriteErr func() error

// spillPart selects the partition for a hash at a recursion level; each
// level consumes a different 7-bit window so re-partitioning a skewed
// partition actually splits it.
func spillPart(h uint64, level int) int {
	return int((h >> (7 * uint(level))) % spillFanout)
}

// spillFile is one buffered tempdir spill partition.
type spillFile struct {
	f    *os.File
	w    *bufio.Writer
	head []byte
	buf  []byte
	rows int64
}

func createSpill(dir string) (*spillFile, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "disco-exec-spill-*")
	if err != nil {
		return nil, fmt.Errorf("vexec: create spill file: %w", err)
	}
	return &spillFile{f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

func (s *spillFile) write(r types.Row) error {
	if hook := testSpillWriteErr; hook != nil {
		if err := hook(); err != nil {
			return fmt.Errorf("vexec: spill write: %w", err)
		}
	}
	s.buf = types.AppendValues(s.buf[:0], r)
	s.head = binary.AppendUvarint(binary.AppendUvarint(s.head[:0], uint64(len(r))), uint64(len(s.buf)))
	_, err := s.w.Write(s.head)
	if err == nil {
		_, err = s.w.Write(s.buf)
	}
	if err != nil {
		return fmt.Errorf("vexec: spill write: %w", err)
	}
	s.rows++
	return nil
}

// startRead flushes and rewinds the partition for decoding.
func (s *spillFile) startRead() (*spillReader, error) {
	if err := s.w.Flush(); err != nil {
		return nil, fmt.Errorf("vexec: spill flush: %w", err)
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("vexec: spill rewind: %w", err)
	}
	return &spillReader{r: bufio.NewReaderSize(s.f, 1<<16), left: s.rows}, nil
}

// cleanup closes and removes the partition file; safe to call twice.
func (s *spillFile) cleanup() {
	if s.f == nil {
		return
	}
	name := s.f.Name()
	s.f.Close()
	os.Remove(name)
	s.f = nil
}

// spillReader decodes rows back out of a partition.
type spillReader struct {
	r     *bufio.Reader
	left  int64
	arena arena
	buf   []byte
}

// next decodes one row; ok=false at end of partition.
func (sr *spillReader) next() (types.Row, bool, error) {
	if sr.left == 0 {
		return nil, false, nil
	}
	sr.left--
	cols, err := binary.ReadUvarint(sr.r)
	var size uint64
	if err == nil {
		size, err = binary.ReadUvarint(sr.r)
	}
	if err == nil {
		sr.buf = slices.Grow(sr.buf[:0], int(size))[:size]
		_, err = io.ReadFull(sr.r, sr.buf)
	}
	if err != nil {
		return nil, false, fmt.Errorf("vexec: spill read: %w", err)
	}
	row := sr.arena.alloc(int(cols))
	rest, err := types.DecodeValues(row, sr.buf)
	if err != nil {
		return nil, false, fmt.Errorf("vexec: spill read: %w", err)
	}
	if len(rest) != 0 {
		return nil, false, fmt.Errorf("vexec: spill read: %d bytes left over after a row", len(rest))
	}
	return row, true, nil
}

// spillSet is one level's fan-out of partitions.
type spillSet struct {
	parts [spillFanout]*spillFile
	level int
}

func newSpillSet(dir string, level int) (*spillSet, error) {
	s := &spillSet{level: level}
	for i := range s.parts {
		f, err := createSpill(dir)
		if err != nil {
			s.cleanup()
			return nil, err
		}
		s.parts[i] = f
	}
	return s, nil
}

func (s *spillSet) add(h uint64, r types.Row) error {
	return s.parts[spillPart(h, s.level)].write(r)
}

func (s *spillSet) cleanup() {
	for _, p := range s.parts {
		if p != nil {
			p.cleanup()
		}
	}
}

// readAll materializes one partition.
func (s *spillSet) readAll(i int) ([]types.Row, error) {
	sr, err := s.parts[i].startRead()
	if err != nil {
		return nil, err
	}
	out := make([]types.Row, 0, s.parts[i].rows)
	for {
		row, ok, err := sr.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, row)
	}
}
