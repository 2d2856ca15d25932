package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"

	"twopage/internal/addr"
)

// ErrNotV2 reports that a byte slice handed to NewFileBytes does not
// start with the v2 magic. OpenFile never returns it: it reads the magic
// first and decodes the other formats into v2.
var ErrNotV2 = errors.New("trace: not a v2 trace (bad magic)")

// v2Block is the parsed header of one block: byte extents of the three
// columns within File.data, the lane seeds, and the running reference
// count of all earlier blocks.
type v2Block struct {
	nRefs        int
	kindsOff     int
	instrOff     int
	dataOff      int
	dataEnd      int
	seedI, seedD int64
	cum          uint64
}

// File is a v2 trace opened for zero-copy reading: a memory-mapped v2
// file (or, on platforms without mmap, one read into memory), or the
// in-memory v2 encoding of a v1 or text file, with a block index built
// from the headers. A File is immutable once opened and safe for
// concurrent use; every Reader/Section call returns an independent
// cursor over the shared bytes.
type File struct {
	data   []byte
	blocks []v2Block
	refs   uint64
	unmap  func() error
}

// OpenFile opens the trace at path, in any of the repository's
// formats, as a File; the magic decides the format. A v2 file ("TPV2")
// is memory-mapped and its block index parsed. A v1 ("TP92") or text
// file is decoded once into an in-memory v2 encoding, polling ctx
// between batches, so every format replays the same references through
// the same sections and decode counters. The File holds its mapping
// or buffer until Close.
func OpenFile(ctx context.Context, path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [len(v2Magic)]byte
	n, err := f.ReadAt(magic[:], 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	var tf *File
	switch string(magic[:n]) {
	case v2Magic:
		tf, err = mapV2(f)
	case binaryMagic:
		tf, err = encodeV2File(ctx, NewBinaryReader(f))
	default:
		// Anything else, short files included, is text; its decoder
		// names the offending line.
		tf, err = encodeV2File(ctx, NewTextReader(f))
	}
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return tf, nil
}

// mapV2 memory-maps the v2 file f and parses its block index.
func mapV2(f *os.File) (*File, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, unmap, err := mapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("mapping: %w", err)
	}
	tf, err := NewFileBytes(data)
	if err != nil {
		if unmap != nil {
			_ = unmap()
		}
		return nil, err
	}
	tf.unmap = unmap
	return tf, nil
}

// encodeV2File drains r into an in-memory v2 File, checking ctx between
// batches.
func encodeV2File(ctx context.Context, r Reader) (*File, error) {
	var buf bytes.Buffer
	w := NewV2Writer(&buf)
	var werr error
	if _, err := DrainContext(ctx, r, func(batch []Ref) {
		if werr == nil {
			werr = w.Write(batch)
		}
	}); err != nil {
		return nil, err
	}
	if werr != nil {
		return nil, werr
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return NewFileBytes(buf.Bytes())
}

// NewFileBytes parses a v2 trace already in memory (tests, fuzzers, or
// callers with their own mapping). data is not copied and must stay
// immutable for the File's lifetime.
func NewFileBytes(data []byte) (*File, error) {
	if len(data) < len(v2Magic) || string(data[:len(v2Magic)]) != v2Magic {
		return nil, ErrNotV2
	}
	pos := len(v2Magic)
	ver, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return nil, errors.New("trace: truncated v2 version")
	}
	if ver != v2Version {
		return nil, fmt.Errorf("trace: unsupported v2 version %d", ver)
	}
	pos += n
	f := &File{data: data}
	for pos < len(data) {
		var b v2Block
		hdr := [5]uint64{}
		for i := range hdr {
			v, n := binary.Uvarint(data[pos:])
			if n <= 0 {
				return nil, fmt.Errorf("trace: block %d: truncated header", len(f.blocks))
			}
			hdr[i] = v
			pos += n
		}
		if hdr[0] == 0 || hdr[0] > v2MaxBlockRefs {
			return nil, fmt.Errorf("trace: block %d: bad reference count %d", len(f.blocks), hdr[0])
		}
		b.nRefs = int(hdr[0])
		kindsLen := (b.nRefs + 3) / 4
		instrLen, dataLen := hdr[1], hdr[2]
		if instrLen > uint64(len(data)) || dataLen > uint64(len(data)) ||
			pos+kindsLen+int(instrLen)+int(dataLen) > len(data) {
			return nil, fmt.Errorf("trace: block %d: lanes overrun file", len(f.blocks))
		}
		b.seedI, b.seedD = int64(hdr[3]), int64(hdr[4])
		b.kindsOff = pos
		b.instrOff = b.kindsOff + kindsLen
		b.dataOff = b.instrOff + int(instrLen)
		b.dataEnd = b.dataOff + int(dataLen)
		b.cum = f.refs
		f.refs += uint64(b.nRefs)
		f.blocks = append(f.blocks, b)
		pos = b.dataEnd
	}
	return f, nil
}

// Refs returns the total reference count (the sum of all block headers).
func (f *File) Refs() uint64 { return f.refs }

// Blocks returns the number of blocks in the file.
func (f *File) Blocks() int { return len(f.blocks) }

// Size returns the size of the v2 encoding in bytes: the file's size
// for a v2 file.
func (f *File) Size() int64 { return int64(len(f.data)) }

// BytesPerRef returns the encoded density, bytes per reference.
func (f *File) BytesPerRef() float64 {
	if f.refs == 0 {
		return 0
	}
	return float64(len(f.data)) / float64(f.refs)
}

// Reader returns a cursor over the whole file.
func (f *File) Reader() *MapReader { return f.Section(0, 1) }

// sectionBounds returns the block range [lo, hi) of the i'th of n
// sections. Degenerate inputs — n <= 0, i out of [0, n) — yield the
// empty range, so shard counts computed from untrusted flag values
// produce empty readers rather than cursors with misaligned block
// indices (a negative i used to overflow into a read-time panic).
func (f *File) sectionBounds(i, n int) (lo, hi int) {
	if n <= 0 || i < 0 || i >= n {
		return 0, 0
	}
	lo = len(f.blocks) * i / n
	hi = len(f.blocks) * (i + 1) / n
	return lo, hi
}

// Section returns a cursor over the i'th of n near-equal block ranges,
// for handing disjoint regions of one file to parallel workers: the n
// sections partition the file, and concatenating them in order yields
// exactly the full stream. When n exceeds the block count the trailing
// sections are empty; degenerate inputs (n <= 0 or i outside [0, n))
// also return an empty reader rather than panicking, so shard counts
// derived from user flags are safe to pass through unchecked.
func (f *File) Section(i, n int) *MapReader {
	lo, hi := f.sectionBounds(i, n)
	return &MapReader{f: f, start: lo, end: hi, blk: lo}
}

// SectionRefs returns how many references Section(i, n) will yield
// (zero for empty or degenerate sections).
func (f *File) SectionRefs(i, n int) uint64 {
	lo, hi := f.sectionBounds(i, n)
	var total uint64
	for _, b := range f.blocks[lo:hi] {
		total += uint64(b.nRefs)
	}
	return total
}

// SectionStart returns how many references precede Section(i, n) in the
// file — the global timestamp of the section's first reference. Shard
// workers use it to place per-shard observations on the file's shared
// timeline (zero for degenerate sections).
func (f *File) SectionStart(i, n int) uint64 {
	lo, hi := f.sectionBounds(i, n)
	if lo == hi {
		if lo < len(f.blocks) {
			return f.blocks[lo].cum
		}
		return f.refs
	}
	return f.blocks[lo].cum
}

// Preroll returns a cursor over the blocks immediately preceding
// Section(i, n), covering at least w references when that many exist —
// the warm-up stream a shard replays so its simulator state at the
// section boundary approximates the serial simulator's. The preroll is
// block-aligned: it may cover more than w references (never fewer,
// unless the file starts too close to the section), and it ends exactly
// where the section begins, so warm-up plus section replays a suffix of
// the serial stream. Section 0 and degenerate inputs get an empty
// preroll.
func (f *File) Preroll(i, n int, w uint64) *MapReader {
	lo, hi := f.sectionBounds(i, n)
	if lo == hi || lo == 0 || w == 0 {
		return &MapReader{f: f}
	}
	start := f.blocks[lo].cum
	b0 := lo
	for b0 > 0 && start-f.blocks[b0].cum < w {
		b0--
	}
	return &MapReader{f: f, start: b0, end: lo, blk: b0}
}

// Close releases the mapping or buffer. Readers derived from the File
// must not be used afterwards.
func (f *File) Close() error {
	f.data, f.blocks = nil, nil
	if f.unmap != nil {
		u := f.unmap
		f.unmap = nil
		return u()
	}
	return nil
}

var (
	errV2Lane = errors.New("trace: corrupt v2 lane: bad run encoding")
	errV2Kind = errors.New("trace: corrupt v2 block: invalid kind")
)

// MapReader decodes references straight out of a File's mapping. Read
// is allocation-free in steady state: the only allocations are two
// per-reader scratch buffers sized to the file's largest block on first
// use. A MapReader is a single goroutine's cursor; use separate
// Sections for concurrent readers.
//
// Blocks are decoded in three tight passes rather than one interleaved
// state machine — expand the instruction lane, expand the data lane,
// then weave the two address sequences back together under the kinds
// column. The per-reference cost of an interleaved decoder is dominated
// by run bookkeeping and lane selection; splitting the work keeps each
// loop branch-predictable and gets within ~2x of memcpy speed.
type MapReader struct {
	f          *File
	start, end int // block range [start, end)
	blk        int // next block to load

	// Current block: buf holds its decoded references (a view of
	// scratch), consumed of n already returned. A block decoded
	// directly into a large caller batch never touches scratch; it is
	// recorded as fully consumed.
	n        int
	consumed int
	buf      []Ref

	lanes   []int64 // expanded lane addresses, instr then data
	scratch []Ref

	dec DecodeStats

	err error
}

// DecodeStats counts the decode-side work a reader has performed:
// references and blocks decoded, and encoded bytes consumed (kinds,
// instruction and data lanes). Plain uint64 counters, incremented with
// straight arithmetic on the hot path.
type DecodeStats struct {
	Refs   uint64
	Blocks uint64
	Bytes  uint64
}

// DecodeCounter is implemented by readers that expose decode counters.
// Wrapper readers (Limit) forward to their inner reader so callers
// can harvest counters without unwrapping. The interface is consulted
// once per pass, after the drain loop — never on the hot path.
type DecodeCounter interface {
	DecodeStats() DecodeStats
}

// DecodeStats returns the cumulative decode counters for this cursor.
func (r *MapReader) DecodeStats() DecodeStats { return r.dec }

// expandLane expands one lane's groups into dst and returns how many
// addresses it produced. a is the lane's seed address. The hot varint
// widths — one through four bytes, which cover group headers, stride
// deltas, and scattered heap deltas — are decoded inline, leaving
// binary.Uvarint for the rare wider ones.
func expandLane(dst []int64, buf []byte, a int64) (int, error) {
	n := 0
	pos := 0
	for pos < len(buf) {
		var h uint64
		switch {
		case buf[pos] < 0x80:
			h = uint64(buf[pos])
			pos++
		case pos+1 < len(buf) && buf[pos+1] < 0x80:
			h = uint64(buf[pos]&0x7f) | uint64(buf[pos+1])<<7
			pos += 2
		default:
			var sz int
			h, sz = binary.Uvarint(buf[pos:])
			if sz <= 0 {
				return 0, errV2Lane
			}
			pos += sz
		}
		cnt := int(h >> 1)
		if cnt > len(dst)-n {
			return 0, errV2Lane
		}
		if h&1 != 0 {
			// Run group: one delta, cnt repetitions.
			var v uint64
			switch {
			case pos < len(buf) && buf[pos] < 0x80:
				v = uint64(buf[pos])
				pos++
			case pos+1 < len(buf) && buf[pos+1] < 0x80:
				v = uint64(buf[pos]&0x7f) | uint64(buf[pos+1])<<7
				pos += 2
			case pos+2 < len(buf) && buf[pos+2] < 0x80:
				v = uint64(buf[pos]&0x7f) | uint64(buf[pos+1]&0x7f)<<7 | uint64(buf[pos+2])<<14
				pos += 3
			default:
				var sz int
				v, sz = binary.Uvarint(buf[pos:])
				if sz <= 0 {
					return 0, errV2Lane
				}
				pos += sz
			}
			delta := unzigzag(v)
			for e := n + cnt; n < e; n++ {
				a += delta
				dst[n] = a
			}
			continue
		}
		// Literal group: cnt independent deltas. Literal lengths are
		// effectively random (a mix of small local deltas and
		// region-sized jumps), so a length switch mispredicts; decode
		// branchlessly instead from one unaligned 8-byte load — find the
		// terminator byte with trailing-zeros on the inverted high bits,
		// then compact the 7-bit groups with constant shifts. Falls back
		// to binary.Uvarint within 8 bytes of the lane's end or for >8
		// byte varints.
		for e := n + cnt; n < e; n++ {
			var v uint64
			if pos+8 <= len(buf) {
				u := binary.LittleEndian.Uint64(buf[pos:])
				stop := bits.TrailingZeros64(^u & 0x8080808080808080)
				if stop == 64 {
					// >8 byte varint; rare enough to take the slow path.
					var sz int
					v, sz = binary.Uvarint(buf[pos:])
					if sz <= 0 {
						return 0, errV2Lane
					}
					pos += sz
				} else {
					u &= 1<<uint(stop+1) - 1
					v = u&0x7f | u>>1&(0x7f<<7) | u>>2&(0x7f<<14) | u>>3&(0x7f<<21) |
						u>>4&(0x7f<<28) | u>>5&(0x7f<<35) | u>>6&(0x7f<<42) | u>>7&(0x7f<<49)
					pos += stop>>3 + 1
				}
			} else {
				var sz int
				v, sz = binary.Uvarint(buf[pos:])
				if sz <= 0 {
					return 0, errV2Lane
				}
				pos += sz
			}
			a += unzigzag(v)
			dst[n] = a
		}
	}
	return n, nil
}

// decodeBlock decodes block b into out, which must be exactly b.nRefs
// long.
//
//paperlint:hot
func (r *MapReader) decodeBlock(b v2Block, out []Ref) error {
	if cap(r.lanes) < b.nRefs {
		r.lanes = make([]int64, b.nRefs) //paperlint:ignore hotalloc first-use growth, amortized to zero per the AllocsPerRun test
	}
	lanes := r.lanes[:b.nRefs]
	nI, err := expandLane(lanes, r.f.data[b.instrOff:b.dataOff], b.seedI)
	if err != nil {
		return err
	}
	nD, err := expandLane(lanes[nI:], r.f.data[b.dataOff:b.dataEnd], b.seedD)
	if err != nil {
		return err
	}
	if nI+nD != b.nRefs {
		return errV2Lane
	}
	kinds := r.f.data[b.kindsOff:b.instrOff]
	if cI, cBad := countKinds(kinds, b.nRefs); cI != nI || cBad != 0 {
		// Corrupt kinds column: it disagrees with the lane sizes or
		// contains the invalid code 3. Checking up front keeps the weave
		// free of per-reference kind and bounds tests — the counts
		// guarantee each lane cursor advances exactly its lane's length.
		return errV2Kind
	}
	// Weave the lanes back together, four references per kinds byte.
	// The lane select is mask arithmetic on the kind code — d = (k+1)>>1
	// maps I to 0, L/S to 1, and c picks between the two cursors with
	// d's sign mask — so both cursors live in registers and the loop has
	// no data-dependent branches to mispredict.
	iI, iD := 0, nI
	i := 0
	for ; i+4 <= len(out); i += 4 {
		kb := int(kinds[i>>2])
		k := kb & 3
		d := ((k + 1) >> 1) & 1
		c := iI ^ ((iI ^ iD) & -d)
		iI += d ^ 1
		iD += d
		out[i] = Ref{Addr: addr.VA(lanes[c]), Kind: Kind(k)}
		k = (kb >> 2) & 3
		d = ((k + 1) >> 1) & 1
		c = iI ^ ((iI ^ iD) & -d)
		iI += d ^ 1
		iD += d
		out[i+1] = Ref{Addr: addr.VA(lanes[c]), Kind: Kind(k)}
		k = (kb >> 4) & 3
		d = ((k + 1) >> 1) & 1
		c = iI ^ ((iI ^ iD) & -d)
		iI += d ^ 1
		iD += d
		out[i+2] = Ref{Addr: addr.VA(lanes[c]), Kind: Kind(k)}
		k = kb >> 6
		d = ((k + 1) >> 1) & 1
		c = iI ^ ((iI ^ iD) & -d)
		iI += d ^ 1
		iD += d
		out[i+3] = Ref{Addr: addr.VA(lanes[c]), Kind: Kind(k)}
	}
	for ; i < len(out); i++ {
		k := int((kinds[i>>2] >> (2 * uint(i&3))) & 3)
		d := ((k + 1) >> 1) & 1
		c := iI ^ ((iI ^ iD) & -d)
		iI += d ^ 1
		iD += d
		out[i] = Ref{Addr: addr.VA(lanes[c]), Kind: Kind(k)}
	}
	return nil
}

// v2KindCounts[b] packs, for the four 2-bit fields of b, the number of
// zero fields (Instr codes) in its low half and the number of 3 fields
// (invalid codes) in its high half, so one table walk yields both.
var v2KindCounts = func() (t [256]uint64) {
	for b := 0; b < 256; b++ {
		for s := 0; s < 4; s++ {
			switch (b >> (2 * s)) & 3 {
			case 0:
				t[b]++
			case 3:
				t[b] += 1 << 32
			}
		}
	}
	return
}()

// countKinds counts Instr and invalid codes among the first nRefs
// entries of a kinds column (the tail slots of the last byte are
// padding and must not be counted).
func countKinds(kinds []byte, nRefs int) (nInstr, nBad int) {
	var sum uint64
	full := nRefs >> 2
	for _, b := range kinds[:full] {
		sum += v2KindCounts[b]
	}
	nInstr, nBad = int(sum&0xffffffff), int(sum>>32)
	for s := full << 2; s < nRefs; s++ {
		switch (kinds[s>>2] >> (2 * uint(s&3))) & 3 {
		case 0:
			nInstr++
		case 3:
			nBad++
		}
	}
	return nInstr, nBad
}

// Read implements Reader. This is the decode hot path: the zero-copy
// AllocsPerRun test pins it to zero steady-state allocations.
//
//paperlint:hot
func (r *MapReader) Read(batch []Ref) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	n := 0
	for n < len(batch) {
		if r.consumed == r.n {
			if r.blk >= r.end {
				r.err = io.EOF
				return n, io.EOF
			}
			b := r.f.blocks[r.blk]
			r.blk++
			if len(batch)-n >= b.nRefs {
				// Whole block fits: decode straight into the caller's
				// batch, skipping the scratch copy. DrainContext's and
				// every core pass's 8192-reference batches always take
				// this path.
				if err := r.decodeBlock(b, batch[n:n+b.nRefs]); err != nil {
					r.err = err
					return n, err
				}
				r.dec.Refs += uint64(b.nRefs)
				r.dec.Blocks++
				r.dec.Bytes += uint64(b.dataEnd - b.kindsOff)
				n += b.nRefs
				r.n, r.consumed = b.nRefs, b.nRefs
				continue
			}
			if cap(r.scratch) < b.nRefs {
				r.scratch = make([]Ref, b.nRefs) //paperlint:ignore hotalloc first-use growth, amortized to zero per the AllocsPerRun test
			}
			if err := r.decodeBlock(b, r.scratch[:b.nRefs]); err != nil {
				r.err = err
				return n, err
			}
			r.dec.Refs += uint64(b.nRefs)
			r.dec.Blocks++
			r.dec.Bytes += uint64(b.dataEnd - b.kindsOff)
			r.buf = r.scratch[:b.nRefs]
			r.n, r.consumed = b.nRefs, 0
		}
		m := copy(batch[n:], r.buf[r.consumed:r.n])
		n += m
		r.consumed += m
	}
	return n, nil
}

// File returns the mapped file this cursor reads from.
func (r *MapReader) File() *File { return r.f }

// Reset rewinds the cursor to the start of its section.
func (r *MapReader) Reset() {
	r.blk = r.start
	r.n, r.consumed = 0, 0
	r.err = nil
}

// Refs returns how many references the full section yields (independent
// of the cursor position).
func (r *MapReader) Refs() uint64 {
	var total uint64
	for _, b := range r.f.blocks[r.start:r.end] {
		total += uint64(b.nRefs)
	}
	return total
}
