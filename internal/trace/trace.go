// Package trace defines the memory-reference stream model shared by all
// simulators, plus binary and text trace codecs and stream adapters.
//
// The paper drives its simulators with dynamically generated SPARC traces
// (Section 3.1). We model a trace as a stream of Ref values: a virtual
// address plus a reference kind (instruction fetch, load, or store).
// Streams are pulled in batches through the Reader interface so that
// multi-million-reference simulations do not pay an interface call per
// reference.
package trace

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"twopage/internal/addr"
)

// Kind classifies a memory reference.
type Kind uint8

// Reference kinds. Instruction fetches are distinct because the traced
// SPARC programs fetch every instruction from memory, which is what makes
// RPI (references per instruction) exceed 1.0 in Table 3.1.
const (
	Instr Kind = iota // instruction fetch
	Load              // data read
	Store             // data write
)

// String returns the single-letter mnemonic used by the text trace format.
func (k Kind) String() string {
	switch k {
	case Instr:
		return "I"
	case Load:
		return "L"
	case Store:
		return "S"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Ref is one memory reference of a trace.
type Ref struct {
	Addr addr.VA // virtual address
	Kind Kind    // instruction fetch, load, or store
}

// Reader is the pull interface for reference streams. Read fills batch
// with up to len(batch) references and returns how many were written.
// It returns io.EOF (possibly alongside n > 0 being zero) when the
// stream is exhausted, following the io.Reader contract: callers must
// process the n references returned before considering the error.
type Reader interface {
	Read(batch []Ref) (n int, err error)
}

// Drain pulls the entire stream through fn in batches. fn is invoked
// with each non-empty batch in order. It is the canonical driver loop
// shared by all simulators.
func Drain(r Reader, fn func([]Ref)) (total uint64, err error) {
	return DrainContext(context.Background(), r, fn)
}

// DrainContext is Drain with cooperative cancellation: the context is
// checked between batches, so a multi-million-reference simulation
// stops within one batch (8192 references) of cancellation. The
// context's error is returned verbatim, letting callers distinguish
// cancellation from stream failures with errors.Is.
func DrainContext(ctx context.Context, r Reader, fn func([]Ref)) (total uint64, err error) {
	buf := make([]Ref, 8192)
	for {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		n, err := r.Read(buf)
		if n > 0 {
			fn(buf[:n])
			total += uint64(n)
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return total, nil
			}
			return total, err
		}
	}
}

// Count consumes the stream and returns per-kind reference counts.
type Count struct {
	Instr, Load, Store uint64
}

// Total returns the total number of references counted.
func (c Count) Total() uint64 { return c.Instr + c.Load + c.Store }

// Data returns the number of data references (loads + stores).
func (c Count) Data() uint64 { return c.Load + c.Store }

// RPI returns references per instruction: with every instruction fetched
// from memory, RPI = total refs / instruction fetches (Section 3.2 uses
// RPI to convert between miss ratio and misses per instruction).
func (c Count) RPI() float64 {
	if c.Instr == 0 {
		return 0
	}
	return float64(c.Total()) / float64(c.Instr)
}

// CountRefs drains r and tallies reference kinds, checking ctx between
// batches like DrainContext.
func CountRefs(ctx context.Context, r Reader) (Count, error) {
	var c Count
	_, err := DrainContext(ctx, r, func(b []Ref) {
		for _, ref := range b {
			switch ref.Kind {
			case Instr:
				c.Instr++
			case Load:
				c.Load++
			default:
				c.Store++
			}
		}
	})
	return c, err
}

// SliceReader serves references from an in-memory slice. Useful in tests
// and for small replay scenarios.
type SliceReader struct {
	refs []Ref
	pos  int
}

// NewSliceReader returns a Reader over refs. The slice is not copied.
func NewSliceReader(refs []Ref) *SliceReader { return &SliceReader{refs: refs} }

// Read implements Reader.
func (s *SliceReader) Read(batch []Ref) (int, error) {
	if s.pos >= len(s.refs) {
		return 0, io.EOF
	}
	n := copy(batch, s.refs[s.pos:])
	s.pos += n
	if s.pos >= len(s.refs) {
		return n, io.EOF
	}
	return n, nil
}

// Reset rewinds the reader to the start of the slice.
func (s *SliceReader) Reset() { s.pos = 0 }

// Limit wraps r, truncating the stream after max references. It is how
// experiments apply their -scale knob to workload generators.
type Limit struct {
	r    Reader
	left uint64
}

// NewLimit returns a Reader that yields at most max references from r.
func NewLimit(r Reader, max uint64) *Limit { return &Limit{r: r, left: max} }

// Read implements Reader.
func (l *Limit) Read(batch []Ref) (int, error) {
	if l.left == 0 {
		return 0, io.EOF
	}
	if uint64(len(batch)) > l.left {
		batch = batch[:l.left]
	}
	n, err := l.r.Read(batch)
	l.left -= uint64(n)
	if l.left == 0 && err == nil {
		err = io.EOF
	}
	return n, err
}

// DecodeStats forwards to the wrapped reader's counters, so decode
// accounting survives the Limit wrapper registered workloads apply.
func (l *Limit) DecodeStats() DecodeStats {
	if dc, ok := l.r.(DecodeCounter); ok {
		return dc.DecodeStats()
	}
	return DecodeStats{}
}

// Concat chains readers back to back.
type Concat struct {
	rs []Reader
}

// NewConcat returns a Reader that yields all of each reader in turn.
func NewConcat(rs ...Reader) *Concat { return &Concat{rs: rs} }

// Read implements Reader.
func (c *Concat) Read(batch []Ref) (int, error) {
	for len(c.rs) > 0 {
		n, err := c.rs[0].Read(batch)
		if errors.Is(err, io.EOF) {
			c.rs = c.rs[1:]
			if n > 0 {
				if len(c.rs) == 0 {
					return n, io.EOF
				}
				return n, nil
			}
			continue
		}
		return n, err
	}
	return 0, io.EOF
}

// ---------------------------------------------------------------------
// Binary trace format.
//
// Header: magic "TP92" then a uvarint count (0 = unknown/streamed).
// Records: per reference, one byte kind followed by a zig-zag varint
// delta from the previous address of that kind. Delta-encoding per kind
// compresses well because instruction fetches are mostly sequential and
// data streams are mostly strided.
// ---------------------------------------------------------------------

const binaryMagic = "TP92"

// Writer encodes references to the binary trace format.
type Writer struct {
	w    *bufio.Writer
	last [3]int64 // previous address per kind
	n    uint64
	head bool
}

// NewWriter returns a Writer emitting the binary trace format to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriterSize(w, 1<<16)} }

// Write encodes a batch of references.
func (tw *Writer) Write(batch []Ref) error {
	if !tw.head {
		tw.head = true
		if _, err := tw.w.WriteString(binaryMagic); err != nil {
			return err
		}
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(tmp[:], 0) // streamed; count unknown
		if _, err := tw.w.Write(tmp[:n]); err != nil {
			return err
		}
	}
	var tmp [binary.MaxVarintLen64]byte
	for _, r := range batch {
		k := int(r.Kind)
		if k > 2 {
			return fmt.Errorf("trace: invalid kind %d", r.Kind)
		}
		if err := tw.w.WriteByte(byte(r.Kind)); err != nil {
			return err
		}
		delta := int64(r.Addr) - tw.last[k]
		tw.last[k] = int64(r.Addr)
		n := binary.PutVarint(tmp[:], delta)
		if _, err := tw.w.Write(tmp[:n]); err != nil {
			return err
		}
		tw.n++
	}
	return nil
}

// Flush flushes buffered output. Call once after the last Write.
func (tw *Writer) Flush() error {
	if !tw.head {
		// Even an empty trace gets a header.
		if err := tw.Write(nil); err != nil {
			return err
		}
	}
	return tw.w.Flush()
}

// Written returns how many references have been encoded.
func (tw *Writer) Written() uint64 { return tw.n }

// BinaryReader decodes the binary trace format.
type BinaryReader struct {
	br   *bufio.Reader
	last [3]int64
	head bool
	err  error
}

// NewBinaryReader returns a Reader decoding the binary format from r.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return &BinaryReader{br: bufio.NewReaderSize(r, 1<<16)}
}

func (br *BinaryReader) readHeader() error {
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br.br, magic); err != nil {
		if errors.Is(err, io.EOF) {
			// Even an empty trace carries a header; a bare EOF here is a
			// malformed file, not a clean end of stream.
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("trace: short or missing header: %w", err)
	}
	if string(magic) != binaryMagic {
		return fmt.Errorf("trace: bad magic %q", magic)
	}
	if _, err := binary.ReadUvarint(br.br); err != nil {
		return fmt.Errorf("trace: bad header count: %w", err)
	}
	return nil
}

// Read implements Reader.
func (br *BinaryReader) Read(batch []Ref) (int, error) {
	if br.err != nil {
		return 0, br.err
	}
	if !br.head {
		br.head = true
		if err := br.readHeader(); err != nil {
			br.err = err
			return 0, err
		}
	}
	n := 0
	for n < len(batch) {
		kb, err := br.br.ReadByte()
		if err != nil {
			if errors.Is(err, io.EOF) {
				br.err = io.EOF
				return n, io.EOF
			}
			br.err = err
			return n, err
		}
		if kb > 2 {
			br.err = fmt.Errorf("trace: invalid kind byte %d", kb)
			return n, br.err
		}
		delta, err := binary.ReadVarint(br.br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			br.err = fmt.Errorf("trace: truncated record: %w", err)
			return n, br.err
		}
		br.last[kb] += delta
		batch[n] = Ref{Addr: addr.VA(br.last[kb]), Kind: Kind(kb)}
		n++
	}
	return n, nil
}

// ---------------------------------------------------------------------
// Text trace format: one reference per line, "<kind> <hex address>",
// e.g. "I 0x10234" / "L 0x2f000" / "S 0x2f008". Lines beginning with '#'
// and blank lines are ignored.
// ---------------------------------------------------------------------

// TextWriter encodes references to the text trace format.
type TextWriter struct {
	w *bufio.Writer
}

// NewTextWriter returns a TextWriter emitting to w.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write encodes a batch of references, one per line.
func (tw *TextWriter) Write(batch []Ref) error {
	for _, r := range batch {
		if _, err := fmt.Fprintf(tw.w, "%s 0x%x\n", r.Kind, uint64(r.Addr)); err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes buffered output.
func (tw *TextWriter) Flush() error { return tw.w.Flush() }

// TextReader decodes the text trace format.
type TextReader struct {
	sc   *bufio.Scanner
	line int
	err  error
}

// NewTextReader returns a Reader decoding the text format from r.
func NewTextReader(r io.Reader) *TextReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &TextReader{sc: sc}
}

// Read implements Reader.
func (tr *TextReader) Read(batch []Ref) (int, error) {
	if tr.err != nil {
		return 0, tr.err
	}
	n := 0
	for n < len(batch) {
		if !tr.sc.Scan() {
			if err := tr.sc.Err(); err != nil {
				tr.err = err
			} else {
				tr.err = io.EOF
			}
			return n, tr.err
		}
		tr.line++
		line := strings.TrimSpace(tr.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			tr.err = fmt.Errorf("trace: line %d: want 2 fields, got %d", tr.line, len(fields))
			return n, tr.err
		}
		var k Kind
		switch fields[0] {
		case "I", "i":
			k = Instr
		case "L", "l", "R", "r":
			k = Load
		case "S", "s", "W", "w":
			k = Store
		default:
			tr.err = fmt.Errorf("trace: line %d: unknown kind %q", tr.line, fields[0])
			return n, tr.err
		}
		v, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), 16, 64)
		if err != nil {
			tr.err = fmt.Errorf("trace: line %d: bad address %q: %w", tr.line, fields[1], err)
			return n, tr.err
		}
		batch[n] = Ref{Addr: addr.VA(v), Kind: k}
		n++
	}
	return n, nil
}
