package vexec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

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
// Spill row format: uvarint column count, then per column a tag byte
// ('z' null, 'i' zigzag-varint int, 'd' 8-byte little-endian float bits,
// 's' uvarint length + bytes, 't'/'f' bool) — the same tags as keyEnc.

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
	f     *os.File
	w     *bufio.Writer
	buf   []byte
	rows  int64
	bytes int64
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
	s.buf = encodeSpillRow(s.buf[:0], r)
	if _, err := s.w.Write(s.buf); err != nil {
		return fmt.Errorf("vexec: spill write: %w", err)
	}
	s.rows++
	s.bytes += int64(len(s.buf))
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
	sbuf  []byte
}

// next decodes one row; ok=false at end of partition.
func (sr *spillReader) next() (types.Row, bool, error) {
	if sr.left == 0 {
		return nil, false, nil
	}
	sr.left--
	n, err := binary.ReadUvarint(sr.r)
	if err != nil {
		return nil, false, fmt.Errorf("vexec: spill read: %w", err)
	}
	row := sr.arena.alloc(int(n))
	for i := range row {
		c, err := sr.constant()
		if err != nil {
			return nil, false, err
		}
		row[i] = c
	}
	return row, true, nil
}

func (sr *spillReader) constant() (types.Constant, error) {
	tag, err := sr.r.ReadByte()
	if err != nil {
		return types.Null, fmt.Errorf("vexec: spill read: %w", err)
	}
	switch tag {
	case 'z':
		return types.Null, nil
	case 'i':
		v, err := binary.ReadVarint(sr.r)
		if err != nil {
			return types.Null, fmt.Errorf("vexec: spill read: %w", err)
		}
		return types.Int(v), nil
	case 'd':
		var b [8]byte
		if _, err := io.ReadFull(sr.r, b[:]); err != nil {
			return types.Null, fmt.Errorf("vexec: spill read: %w", err)
		}
		return types.Float(math.Float64frombits(binary.LittleEndian.Uint64(b[:]))), nil
	case 's':
		n, err := binary.ReadUvarint(sr.r)
		if err != nil {
			return types.Null, fmt.Errorf("vexec: spill read: %w", err)
		}
		if cap(sr.sbuf) < int(n) {
			sr.sbuf = make([]byte, n)
		}
		sr.sbuf = sr.sbuf[:n]
		if _, err := io.ReadFull(sr.r, sr.sbuf); err != nil {
			return types.Null, fmt.Errorf("vexec: spill read: %w", err)
		}
		return types.Str(string(sr.sbuf)), nil
	case 't':
		return types.Bool(true), nil
	case 'f':
		return types.Bool(false), nil
	default:
		return types.Null, fmt.Errorf("vexec: spill read: unknown value tag %q", tag)
	}
}

func encodeSpillRow(buf []byte, r types.Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r)))
	for _, c := range r {
		switch c.Kind() {
		case types.KindNull:
			buf = append(buf, 'z')
		case types.KindInt:
			buf = append(buf, 'i')
			buf = binary.AppendVarint(buf, c.AsInt())
		case types.KindFloat:
			buf = append(buf, 'd')
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.AsFloat()))
		case types.KindString:
			s := c.AsString()
			buf = append(buf, 's')
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		case types.KindBool:
			if c.AsBool() {
				buf = append(buf, 't')
			} else {
				buf = append(buf, 'f')
			}
		}
	}
	return buf
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
