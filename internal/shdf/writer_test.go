package shdf

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// oldSDSPayload is the SDS payload as WriteSDS built it before arrays were
// written in bulk: the header, then every element appended one at a time to
// a growing buffer. It stays here as the byte-identity oracle.
func oldSDSPayload(dims []int, data any) []byte {
	p := &payload{}
	p.u16(uint16(numTypeOf(data)))
	p.u16(uint16(len(dims)))
	for _, d := range dims {
		p.u64(uint64(d))
	}
	switch v := data.(type) {
	case []uint8:
		p.buf = append(p.buf, v...)
	case []int32:
		for _, x := range v {
			p.u32(uint32(x))
		}
	case []int64:
		for _, x := range v {
			p.u64(uint64(x))
		}
	case []float32:
		for _, x := range v {
			p.u32(math.Float32bits(x))
		}
	case []float64:
		for _, x := range v {
			p.u64(math.Float64bits(x))
		}
	}
	return p.buf
}

func numTypeOf(data any) NumType {
	switch data.(type) {
	case []uint8:
		return TypeUint8
	case []int32:
		return TypeInt32
	case []int64:
		return TypeInt64
	case []float32:
		return TypeFloat32
	case []float64:
		return TypeFloat64
	}
	return 0
}

// oldWriteSDS writes oldSDSPayload the way WriteSDS placed it: after the
// alignment pad, as one object with the payload's CRC.
func oldWriteSDS(w *Writer, name string, dims []int, data any) (Ref, error) {
	if err := w.alignForSDS(); err != nil {
		return 0, err
	}
	return w.addObject(TagSDS, name, oldSDSPayload(dims, data), nil)
}

// sdsSamples holds arrays of all five number types, with awkward lengths
// (odd byte counts move the next object's alignment pad), negative values,
// NaN and infinities.
func sdsSamples() []struct {
	dims []int
	data any
} {
	u8 := make([]uint8, 13)
	i32 := make([]int32, 7)
	i64 := make([]int64, 5)
	f32 := make([]float32, 9)
	f64 := make([]float64, 3*4*5)
	for i := range u8 {
		u8[i] = uint8(251 * i)
	}
	for i := range i32 {
		i32[i] = int32(-1_000_003 * (i + 1))
	}
	for i := range i64 {
		i64[i] = math.MinInt64 / int64(i+1)
	}
	for i := range f32 {
		f32[i] = float32(i) * -1.25
	}
	f32[3] = float32(math.NaN())
	for i := range f64 {
		f64[i] = math.Sqrt(float64(i)) * 1e-3
	}
	f64[1], f64[2] = math.Inf(1), math.Inf(-1)
	return []struct {
		dims []int
		data any
	}{
		{[]int{13}, u8},
		{[]int{7}, i32},
		{[]int{5, 1}, i64},
		{[]int{3, 3}, f32},
		{[]int{3, 4, 5}, f64},
		{[]int{1}, []uint8{7}},
		{[]int{2}, []float64{-0.0, 1}},
	}
}

// writeWith writes every sample, then an attribute and a group between
// them, through write, and returns the file's bytes.
func writeWith(t *testing.T, write func(w *Writer, name string, dims []int, data any) (Ref, error)) []byte {
	t.Helper()
	var out bytes.Buffer
	w, err := NewWriter(&out)
	if err != nil {
		t.Fatal(err)
	}
	var refs []Ref
	for i, s := range sdsSamples() {
		ref, err := write(w, fmt.Sprintf("sds%d", i), s.dims, s.data)
		if err != nil {
			t.Fatalf("sample %d (%T): %v", i, s.data, err)
		}
		refs = append(refs, ref)
		if i == 2 {
			if _, err := w.WriteAttr("units", "pascal"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := w.WriteVGroup("all", refs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// WriteSDS writes the same bytes, CRCs and directory as the element-wise
// writer it replaced, for all five number types.
func TestWriteSDSByteIdentical(t *testing.T) {
	got := writeWith(t, (*Writer).WriteSDS)
	want := writeWith(t, oldWriteSDS)
	if !bytes.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Fatalf("bulk writer output differs from the element-wise oracle at byte %d (lengths %d and %d)",
			n, len(got), len(want))
	}
	// The file also reads back: directory CRCs validate every payload.
	f, err := NewFile(bytes.NewReader(got), int64(len(got)))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sdsSamples() {
		info, err := f.FindByName(TagSDS, fmt.Sprintf("sds%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ds, err := f.ReadSDS(info.Ref)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if got, want := fmt.Sprint(ds.Dims), fmt.Sprint(s.dims); got != want {
			t.Errorf("sample %d dims %s, want %s", i, got, want)
		}
	}
}

// encodeLE, the big-endian hosts' path, produces the oracle's array bytes
// for every number type, into a buffer of the exact size.
func TestEncodeLEMatchesOracle(t *testing.T) {
	for i, s := range sdsSamples() {
		want := oldSDSPayload(s.dims, s.data)[4+8*len(s.dims):]
		got := encodeLE(s.data, len(want))
		if !bytes.Equal(got, want) {
			t.Errorf("sample %d (%T): encodeLE differs from the element-wise encoding", i, s.data)
		}
		if cap(got) != len(want) {
			t.Errorf("sample %d: encodeLE buffer holds %d bytes for %d", i, cap(got), len(want))
		}
	}
}
