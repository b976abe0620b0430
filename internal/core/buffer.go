package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"godiva/internal/zerocopy"
)

// Buffer is one field data buffer: a typed, contiguous piece of user data
// whose location the GODIVA database manages. The database never interprets
// buffer contents (except for key fields at commit time); application code
// obtains the buffer once via a query and then reads or writes the slice
// directly, exactly as it would a plain array.
//
// The database owns a buffer's memory: once the buffer's record is deleted,
// evicted with its unit or replaced, the memory is reused for a later read
// (see DESIGN.md, "Buffer recycling"). A Buffer and the slices it returns
// must not outlive the pin on their unit (FinishUnit or DeleteUnit ends it).
type Buffer struct {
	dtype DataType
	size  int // bytes
	// Exactly one of the following is non-nil, chosen by dtype, so that
	// application code gets a typed slice with no copying or unsafe casts.
	raw []byte
	i32 []int32
	i64 []int64
	f32 []float32
	f64 []float64

	// borrowed marks a buffer whose memory was donated by a read function
	// (Record.BorrowFieldBuffer) instead of allocated by newBuffer. Borrowed
	// buffers are read-only — SetString and other mutating accessors refuse
	// them — and alias memory (e.g. an mmap'd file) whose validity the donor
	// ties to the owning unit's lifetime.
	borrowed bool

	// freePrev and freeNext link the buffer into its database's free list
	// while it waits for reuse (freelist.go). Guarded by db.mu.
	freePrev, freeNext *Buffer
}

// checkBufferSize reports whether size bytes is a valid buffer of type t.
func checkBufferSize(t DataType, size int) error {
	if size < 0 {
		return fmt.Errorf("%w: %d bytes", ErrBadSize, size)
	}
	es := t.ElemSize()
	if es == 0 {
		return fmt.Errorf("%w: %v", ErrTypeMismatch, t)
	}
	if size%es != 0 {
		return fmt.Errorf("%w: %d bytes is not a multiple of %v element size %d",
			ErrBadSize, size, t, es)
	}
	return nil
}

func newBuffer(t DataType, size int) (*Buffer, error) {
	if err := checkBufferSize(t, size); err != nil {
		return nil, err
	}
	b := &Buffer{dtype: t, size: size}
	n := size / t.ElemSize()
	switch t {
	case String, Bytes:
		b.raw = make([]byte, n)
	case Int32:
		b.i32 = make([]int32, n)
	case Int64:
		b.i64 = make([]int64, n)
	case Float32:
		b.f32 = make([]float32, n)
	case Float64:
		b.f64 = make([]float64, n)
	}
	return b, nil
}

// newBorrowedBuffer wraps donated bytes as a typed buffer without copying
// when the host and alignment allow, falling back to an allocate-and-copy
// decode otherwise. aliased reports which happened: when true, the buffer's
// typed slice shares memory with data and the buffer is marked borrowed
// (read-only); when false, the buffer owns a private copy and behaves like
// any allocated buffer.
func newBorrowedBuffer(t DataType, data []byte) (b *Buffer, aliased bool, err error) {
	es := t.ElemSize()
	if es == 0 {
		return nil, false, fmt.Errorf("%w: %v", ErrTypeMismatch, t)
	}
	if len(data)%es != 0 {
		return nil, false, fmt.Errorf("%w: %d bytes is not a multiple of %v element size %d",
			ErrBadSize, len(data), t, es)
	}
	b = &Buffer{dtype: t, size: len(data)}
	switch t {
	case String, Bytes:
		b.raw = data
		b.borrowed = true
		return b, true, nil
	case Int32:
		if v, ok := zerocopy.I32s(data); ok {
			b.i32 = v
			b.borrowed = true
			return b, true, nil
		}
	case Int64:
		if v, ok := zerocopy.I64s(data); ok {
			b.i64 = v
			b.borrowed = true
			return b, true, nil
		}
	case Float32:
		if v, ok := zerocopy.F32s(data); ok {
			b.f32 = v
			b.borrowed = true
			return b, true, nil
		}
	case Float64:
		if v, ok := zerocopy.F64s(data); ok {
			b.f64 = v
			b.borrowed = true
			return b, true, nil
		}
	}
	b, err = newBuffer(t, len(data))
	if err != nil {
		return nil, false, err
	}
	n := len(data) / es
	switch t {
	case Int32:
		for i := 0; i < n; i++ {
			b.i32[i] = int32(binary.LittleEndian.Uint32(data[i*4:]))
		}
	case Int64:
		for i := 0; i < n; i++ {
			b.i64[i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
		}
	case Float32:
		for i := 0; i < n; i++ {
			b.f32[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[i*4:]))
		}
	case Float64:
		for i := 0; i < n; i++ {
			b.f64[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
	}
	return b, false, nil
}

// Type returns the buffer's element type.
func (b *Buffer) Type() DataType { return b.dtype }

// Borrowed reports whether the buffer's memory was donated by a read
// function rather than allocated by the database. Borrowed buffers are
// read-only.
func (b *Buffer) Borrowed() bool { return b.borrowed }

// Size returns the buffer size in bytes, the same quantity the paper's
// getFieldBufferSize interface reports.
func (b *Buffer) Size() int { return b.size }

// Len returns the number of elements in the buffer.
func (b *Buffer) Len() int { return b.size / b.dtype.ElemSize() }

// Bytes returns the underlying byte slice of a String or Bytes buffer.
func (b *Buffer) Bytes() ([]byte, error) {
	if b.raw == nil {
		return nil, fmt.Errorf("%w: buffer is %v, not STRING/BYTES", ErrTypeMismatch, b.dtype)
	}
	return b.raw, nil
}

// Int32s returns the underlying slice of an Int32 buffer.
func (b *Buffer) Int32s() ([]int32, error) {
	if b.i32 == nil {
		return nil, fmt.Errorf("%w: buffer is %v, not INT32", ErrTypeMismatch, b.dtype)
	}
	return b.i32, nil
}

// Int64s returns the underlying slice of an Int64 buffer.
func (b *Buffer) Int64s() ([]int64, error) {
	if b.i64 == nil {
		return nil, fmt.Errorf("%w: buffer is %v, not INT64", ErrTypeMismatch, b.dtype)
	}
	return b.i64, nil
}

// Float32s returns the underlying slice of a Float32 buffer.
func (b *Buffer) Float32s() ([]float32, error) {
	if b.f32 == nil {
		return nil, fmt.Errorf("%w: buffer is %v, not FLOAT", ErrTypeMismatch, b.dtype)
	}
	return b.f32, nil
}

// Float64s returns the underlying slice of a Float64 buffer.
func (b *Buffer) Float64s() ([]float64, error) {
	if b.f64 == nil {
		return nil, fmt.Errorf("%w: buffer is %v, not DOUBLE", ErrTypeMismatch, b.dtype)
	}
	return b.f64, nil
}

// SetString copies s into a String buffer, padding with zero bytes. It fails
// if s is longer than the buffer.
func (b *Buffer) SetString(s string) error {
	if b.dtype != String {
		return fmt.Errorf("%w: buffer is %v, not STRING", ErrTypeMismatch, b.dtype)
	}
	if b.borrowed {
		return fmt.Errorf("%w: SetString on donated field memory", ErrBorrowed)
	}
	if len(s) > len(b.raw) {
		return fmt.Errorf("%w: string of %d bytes into %d-byte buffer", ErrBadSize, len(s), len(b.raw))
	}
	n := copy(b.raw, s)
	for i := n; i < len(b.raw); i++ {
		b.raw[i] = 0
	}
	return nil
}

// StringValue returns the contents of a String buffer with trailing zero
// bytes trimmed.
func (b *Buffer) StringValue() (string, error) {
	if b.dtype != String {
		return "", fmt.Errorf("%w: buffer is %v, not STRING", ErrTypeMismatch, b.dtype)
	}
	end := len(b.raw)
	for end > 0 && b.raw[end-1] == 0 {
		end--
	}
	return string(b.raw[:end]), nil
}

// encodeTo appends the buffer contents in a canonical little-endian byte
// form, used to build composite index keys from key-field values.
func (b *Buffer) encodeTo(dst []byte) []byte {
	switch b.dtype {
	case String, Bytes:
		return append(dst, b.raw...)
	case Int32:
		for _, v := range b.i32 {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
		}
	case Int64:
		for _, v := range b.i64 {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
	case Float32:
		for _, v := range b.f32 {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
	case Float64:
		for _, v := range b.f64 {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// encodeKeyValue appends the canonical byte form of a query-supplied key
// value, which must agree with the key field's declared type and size.
// Strings shorter than the declared field size are zero-padded so that a
// query value of "block_0001" matches a record whose 11-byte STRING key
// buffer holds the same text.
//
//godiva:noalloc
func encodeKeyValue(dst []byte, t DataType, size int, v any) ([]byte, error) {
	switch t {
	case String:
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("%w: key value %T for STRING field", ErrTypeMismatch, v)
		}
		if len(s) > size {
			return nil, fmt.Errorf("%w: key string %q longer than field size %d", ErrBadSize, s, size)
		}
		dst = append(dst, s...)
		for i := len(s); i < size; i++ {
			dst = append(dst, 0)
		}
		return dst, nil
	case Bytes:
		bs, ok := v.([]byte)
		if !ok {
			return nil, fmt.Errorf("%w: key value %T for BYTES field", ErrTypeMismatch, v)
		}
		if len(bs) != size {
			return nil, fmt.Errorf("%w: key of %d bytes for %d-byte field", ErrBadSize, len(bs), size)
		}
		return append(dst, bs...), nil
	case Int32:
		n, ok := toInt64(v)
		if !ok || n < math.MinInt32 || n > math.MaxInt32 {
			return nil, fmt.Errorf("%w: key value %v for INT32 field", ErrTypeMismatch, v)
		}
		return binary.LittleEndian.AppendUint32(dst, uint32(int32(n))), nil
	case Int64:
		n, ok := toInt64(v)
		if !ok {
			return nil, fmt.Errorf("%w: key value %T for INT64 field", ErrTypeMismatch, v)
		}
		return binary.LittleEndian.AppendUint64(dst, uint64(n)), nil
	case Float32:
		f, ok := toFloat64(v)
		if !ok {
			return nil, fmt.Errorf("%w: key value %T for FLOAT field", ErrTypeMismatch, v)
		}
		return binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(f))), nil
	case Float64:
		f, ok := toFloat64(v)
		if !ok {
			return nil, fmt.Errorf("%w: key value %T for DOUBLE field", ErrTypeMismatch, v)
		}
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f)), nil
	}
	return nil, fmt.Errorf("%w: %v", ErrTypeMismatch, t)
}

func toInt64(v any) (int64, bool) {
	switch n := v.(type) {
	case int:
		return int64(n), true
	case int32:
		return int64(n), true
	case int64:
		return n, true
	}
	return 0, false
}

// toFloat64 converts query-supplied key values for FLOAT/DOUBLE key fields.
// Integer values are accepted when float64 represents them exactly, so
// Query(..., 3) matches a key committed as 3.0 — the same leniency toInt64
// has always given integer fields. Inexact integers (beyond 2^53) are
// rejected rather than silently rounded to a key that matches nothing.
func toFloat64(v any) (float64, bool) {
	switch f := v.(type) {
	case float32:
		return float64(f), true
	case float64:
		return f, true
	case int:
		g := float64(f)
		return g, int(g) == f
	case int32:
		return float64(f), true
	case int64:
		g := float64(f)
		return g, int64(g) == f
	}
	return 0, false
}
