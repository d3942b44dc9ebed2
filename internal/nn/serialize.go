package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// A tensor snapshot is one little-endian stream:
//
//	magic    "PGTS"
//	version  uint32, snapshotVersion
//	count    uint32, the number of tensors
//	lengths  count × uint64, each tensor's number of values
//	values   every tensor's values in order, raw IEEE-754 float64 bits
//
// SaveParams and LoadParams move it through one buffer of chunkBytes, so
// neither holds a copy of a tensor and float64 values round-trip bit for
// bit.
const (
	snapshotMagic   = "PGTS"
	snapshotVersion = 1
	headerBytes     = 12
	chunkBytes      = 32 << 10
)

// The errors LoadParams wraps for a stream it rejects.
var (
	// ErrSnapshotFormat: the stream does not open with this version's
	// header (another format, such as the gob snapshots written before
	// the tensor stream, or another version).
	ErrSnapshotFormat = errors.New("nn: not a tensor snapshot of this version")
	// ErrSnapshotTruncated: the stream ended inside its header or values.
	ErrSnapshotTruncated = errors.New("nn: truncated tensor snapshot")
	// ErrSnapshotShape: the stream's tensor count or a tensor's length
	// differs from the parameter list it is loaded into.
	ErrSnapshotShape = errors.New("nn: tensor snapshot shape differs from the model")
)

// SaveParams writes the parameter values (not gradients) in list order
// as one tensor snapshot. A list holding released values (ErrReleased)
// writes nothing.
func SaveParams(w io.Writer, params []*Param) error {
	for _, p := range params {
		if p.released {
			return fmt.Errorf("%w: %s", ErrReleased, p.Name)
		}
	}
	c := chunkWriter{w: w, buf: make([]byte, 0, chunkBytes)}
	c.buf = append(c.buf, snapshotMagic...)
	c.buf = binary.LittleEndian.AppendUint32(c.buf, snapshotVersion)
	c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(len(params)))
	for _, p := range params {
		c.put(uint64(len(p.Val)))
	}
	for _, p := range params {
		for _, v := range p.Val {
			c.put(math.Float64bits(v))
		}
	}
	c.flush()
	if c.err != nil {
		return fmt.Errorf("nn: writing tensor snapshot: %w", c.err)
	}
	return nil
}

// chunkWriter packs words into its buffer and writes it out when full;
// after the first write error it drops everything.
type chunkWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (c *chunkWriter) put(u uint64) {
	if len(c.buf)+8 > cap(c.buf) {
		c.flush()
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, u)
}

func (c *chunkWriter) flush() {
	if c.err == nil {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
}

// LoadParams reads a snapshot written by SaveParams into an identically
// shaped parameter list, in place: it allocates its one buffer and
// nothing the size of a tensor. The header is checked whole before any
// value is read; after an error the values are unspecified.
func LoadParams(r io.Reader, params []*Param) error {
	for _, p := range params {
		p.Version++
	}
	buf := make([]byte, chunkBytes)
	if err := readFull(r, buf[:headerBytes]); err != nil {
		return err
	}
	if string(buf[:4]) != snapshotMagic || binary.LittleEndian.Uint32(buf[4:]) != snapshotVersion {
		return ErrSnapshotFormat
	}
	if n := binary.LittleEndian.Uint32(buf[8:]); uint64(n) != uint64(len(params)) {
		return fmt.Errorf("%w: %d tensors, model has %d", ErrSnapshotShape, n, len(params))
	}
	lengths := make([]uint64, len(params))
	if err := readWords(r, buf, len(lengths), func(off int, words []byte) {
		for i := 0; i < len(words)/8; i++ {
			lengths[off+i] = binary.LittleEndian.Uint64(words[8*i:])
		}
	}); err != nil {
		return err
	}
	for i, p := range params {
		if lengths[i] != uint64(len(p.Val)) {
			return fmt.Errorf("%w: tensor %d (%s) has %d values, model expects %d",
				ErrSnapshotShape, i, p.Name, lengths[i], len(p.Val))
		}
	}
	for _, p := range params {
		val := p.Val
		if err := readWords(r, buf, len(val), func(off int, words []byte) {
			for i := range val[off : off+len(words)/8] {
				val[off+i] = math.Float64frombits(binary.LittleEndian.Uint64(words[8*i:]))
			}
		}); err != nil {
			return err
		}
	}
	return nil
}

// readWords reads n 8-byte words through buf, handing each chunk to use
// with the index of its first word.
func readWords(r io.Reader, buf []byte, n int, use func(off int, words []byte)) error {
	per := len(buf) / 8
	for off := 0; off < n; off += per {
		k := min(per, n-off)
		if err := readFull(r, buf[:8*k]); err != nil {
			return err
		}
		use(off, buf[:8*k])
	}
	return nil
}

// readFull is io.ReadFull with an early end of stream reported as
// ErrSnapshotTruncated.
func readFull(r io.Reader, b []byte) error {
	switch _, err := io.ReadFull(r, b); {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return fmt.Errorf("%w: %w", ErrSnapshotTruncated, err)
	case err != nil:
		return fmt.Errorf("nn: reading tensor snapshot: %w", err)
	}
	return nil
}
