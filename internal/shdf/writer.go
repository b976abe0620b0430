package shdf

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"godiva/internal/zerocopy"
)

// Writer writes an SHDF file sequentially: objects first, directory and
// footer on Close.
type Writer struct {
	w       *bufio.Writer
	f       *os.File // non-nil when created by Create, closed by Close
	offset  uint64
	nextRef Ref
	dir     []dirEntry
	done    bool
	err     error
}

// Create creates or truncates the named file and returns a Writer on it.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := NewWriter(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.f = f
	return w, nil
}

// NewWriter starts an SHDF stream on w by writing the header. The caller
// owns w's lifetime; Close only flushes.
func NewWriter(w io.Writer) (*Writer, error) {
	sw := &Writer{w: bufio.NewWriterSize(w, 1<<16), nextRef: 1}
	if _, err := sw.w.WriteString(magic); err != nil {
		return nil, err
	}
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], version)
	if _, err := sw.w.Write(v[:]); err != nil {
		return nil, err
	}
	sw.offset = uint64(len(magic)) + 4
	return sw, nil
}

// payload buffers one object's bytes and accumulates its CRC.
type payload struct {
	buf []byte
}

func (p *payload) u16(v uint16) { p.buf = binary.LittleEndian.AppendUint16(p.buf, v) }
func (p *payload) u32(v uint32) { p.buf = binary.LittleEndian.AppendUint32(p.buf, v) }
func (p *payload) u64(v uint64) { p.buf = binary.LittleEndian.AppendUint64(p.buf, v) }

// alignForSDS advances the stream to the next offset ≡ 4 (mod 8) with zero
// bytes, so the SDS payload written next has an 8-aligned data section.
func (w *Writer) alignForSDS() error {
	if w.done {
		return ErrWriterDone
	}
	if w.err != nil {
		return w.err
	}
	pad := (4 - w.offset%8 + 8) % 8
	if pad == 0 {
		return nil
	}
	var zeros [8]byte
	if _, err := w.w.Write(zeros[:pad]); err != nil {
		w.err = err
		return err
	}
	w.offset += pad
	return nil
}

// addObject writes one object whose payload is head followed by body (body
// may be nil) and records it in the directory.
func (w *Writer) addObject(tag Tag, name string, head, body []byte) (Ref, error) {
	if w.done {
		return 0, ErrWriterDone
	}
	if w.err != nil {
		return 0, w.err
	}
	ref := w.nextRef
	w.nextRef++
	crc := crc32.Update(crc32.ChecksumIEEE(head), crc32.IEEETable, body)
	for _, b := range [2][]byte{head, body} {
		if _, err := w.w.Write(b); err != nil {
			w.err = err
			return 0, err
		}
	}
	n := uint64(len(head) + len(body))
	w.dir = append(w.dir, dirEntry{
		tag:    tag,
		ref:    ref,
		offset: w.offset,
		length: n,
		crc:    crc,
		name:   name,
	})
	w.offset += n
	return ref, nil
}

// WriteSDS writes a scientific dataset: a named multidimensional array.
// data must be one of []uint8, []int32, []int64, []float32 or []float64 and
// its length must equal the product of dims.
func (w *Writer) WriteSDS(name string, dims []int, data any) (Ref, error) {
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return 0, fmt.Errorf("%w: dimension %d", ErrBadShape, d)
		}
		n *= d
	}
	// The array is written as its little-endian byte view, in place; only a
	// big-endian host encodes it, once, into a buffer of the exact size.
	var (
		nt    NumType
		count int
		body  []byte
		ok    bool
	)
	switch v := data.(type) {
	case []uint8:
		nt, count, body, ok = TypeUint8, len(v), v, true
	case []int32:
		nt, count = TypeInt32, len(v)
		body, ok = zerocopy.BytesOfI32s(v)
	case []int64:
		nt, count = TypeInt64, len(v)
		body, ok = zerocopy.BytesOfI64s(v)
	case []float32:
		nt, count = TypeFloat32, len(v)
		body, ok = zerocopy.BytesOfF32s(v)
	case []float64:
		nt, count = TypeFloat64, len(v)
		body, ok = zerocopy.BytesOfF64s(v)
	default:
		return 0, fmt.Errorf("%w: %T", ErrBadType, data)
	}
	if count != n {
		return 0, fmt.Errorf("%w: dims %v hold %d elements, data has %d", ErrBadShape, dims, n, count)
	}
	// Pad the stream so this payload starts at offset ≡ 4 (mod 8), which
	// puts the data section (payload offset 4+8·rank) on an 8-byte boundary.
	// Mapped readers can then alias the data in place; the pad bytes sit
	// between payloads and are invisible to the directory.
	if err := w.alignForSDS(); err != nil {
		return 0, err
	}
	if !ok {
		body = encodeLE(data, count*nt.Size())
	}
	p := &payload{buf: make([]byte, 0, 4+8*len(dims))}
	p.u16(uint16(nt))
	p.u16(uint16(len(dims)))
	for _, d := range dims {
		p.u64(uint64(d))
	}
	return w.addObject(TagSDS, name, p.buf, body)
}

// encodeLE encodes a numeric array of size bytes in little-endian order, the
// file's byte order, for hosts where the in-memory bytes are not already.
func encodeLE(data any, size int) []byte {
	b := make([]byte, 0, size)
	switch v := data.(type) {
	case []uint8:
		b = append(b, v...)
	case []int32:
		for _, x := range v {
			b = binary.LittleEndian.AppendUint32(b, uint32(x))
		}
	case []int64:
		for _, x := range v {
			b = binary.LittleEndian.AppendUint64(b, uint64(x))
		}
	case []float32:
		for _, x := range v {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		}
	case []float64:
		for _, x := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	return b
}

// WriteAttr writes a named attribute. value must be a string, int64,
// float64, or one of the slice types WriteSDS accepts.
func (w *Writer) WriteAttr(name string, value any) (Ref, error) {
	p := &payload{}
	switch v := value.(type) {
	case string:
		p.u16(uint16(TypeUint8))
		p.u64(uint64(len(v)))
		p.buf = append(p.buf, v...)
	case int64:
		p.u16(uint16(TypeInt64))
		p.u64(1)
		p.u64(uint64(v))
	case int:
		p.u16(uint16(TypeInt64))
		p.u64(1)
		p.u64(uint64(int64(v)))
	case float64:
		p.u16(uint16(TypeFloat64))
		p.u64(1)
		p.u64(math.Float64bits(v))
	default:
		return 0, fmt.Errorf("%w: attribute %T", ErrBadType, value)
	}
	return w.addObject(TagAttr, name, p.buf, nil)
}

// WriteVGroup writes a named group whose members are previously written
// objects, as HDF4 vgroups collect related datasets.
func (w *Writer) WriteVGroup(name string, members []Ref) (Ref, error) {
	p := &payload{}
	p.u32(uint32(len(members)))
	for _, m := range members {
		p.u32(uint32(m))
	}
	return w.addObject(TagVGroup, name, p.buf, nil)
}

// Close writes the directory and footer, flushes, and closes the underlying
// file if the Writer owns it.
func (w *Writer) Close() error {
	if w.done {
		return ErrWriterDone
	}
	w.done = true
	if w.err != nil {
		return w.err
	}
	dirOffset := w.offset
	p := &payload{}
	for _, e := range w.dir {
		p.u16(uint16(e.tag))
		p.u32(uint32(e.ref))
		p.u64(e.offset)
		p.u64(e.length)
		p.u32(e.crc)
		p.u16(uint16(len(e.name)))
		p.buf = append(p.buf, e.name...)
	}
	p.u64(dirOffset)
	p.u32(uint32(len(w.dir)))
	p.buf = append(p.buf, footerMagic...)
	if _, err := w.w.Write(p.buf); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	if w.f != nil {
		return w.f.Close()
	}
	return nil
}
