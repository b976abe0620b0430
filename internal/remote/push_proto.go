package remote

// Wire codecs for the push data plane: OpSubscribe requests (a push.Spec
// match rule plus delivery options), OpEvent frames (one push.Event; an
// empty body is a heartbeat), and OpIngest requests (a path string followed
// by the same FilePayload body OpFetchBatch items carry, so ingested bytes
// go through one codec in both directions).

import (
	"fmt"

	"godiva/internal/push"
)

// i32 appends a signed 32-bit value (two's complement on the wire).
func (e *enc) i32(v int) { e.u32(uint32(int32(v))) }

// i32 reads a signed 32-bit value.
func (d *dec) i32() int { return int(int32(d.u32())) }

// encodeSubReq serializes an OpSubscribe request:
//
//	i32 fromStep | i32 toStep | i32 stride | u8 policy | i32 queue |
//	u16 nfields (str...) | u16 nfiles (i32...)
func encodeSubReq(spec push.Spec, opts push.Options) []byte {
	var e enc
	e.i32(spec.FromStep)
	e.i32(spec.ToStep)
	e.i32(spec.Stride)
	e.b = append(e.b, byte(opts.Policy))
	e.i32(opts.Queue)
	e.u16(uint16(len(spec.Fields)))
	for _, f := range spec.Fields {
		e.str(f)
	}
	e.u16(uint16(len(spec.Files)))
	for _, f := range spec.Files {
		e.i32(f)
	}
	return e.b
}

// decodeSubReq parses an OpSubscribe request.
func decodeSubReq(body []byte) (push.Spec, push.Options, error) {
	d := dec{b: body}
	var spec push.Spec
	var opts push.Options
	spec.FromStep = d.i32()
	spec.ToStep = d.i32()
	spec.Stride = d.i32()
	var pol byte
	if b := d.need(1); b != nil {
		pol = b[0]
	}
	opts.Policy = push.Policy(pol)
	opts.Queue = d.i32()
	nf := int(d.u16())
	for i := 0; i < nf && d.err == nil; i++ {
		spec.Fields = append(spec.Fields, d.str())
	}
	nfi := int(d.u16())
	for i := 0; i < nfi && d.err == nil; i++ {
		spec.Files = append(spec.Files, d.i32())
	}
	if d.err != nil {
		return push.Spec{}, push.Options{}, fmt.Errorf("%w: subscribe request: %v", ErrProtocol, d.err)
	}
	if opts.Policy != push.DropOldest && opts.Policy != push.Block {
		return push.Spec{}, push.Options{}, fmt.Errorf("%w: subscribe request: unknown policy %d", ErrProtocol, pol)
	}
	return spec, opts, nil
}

// encodeEvent serializes one OpEvent frame:
//
//	u64 seq | i32 step | i32 file | f64 time | str path | str stepID |
//	u16 nfields (str...)
//
// Event.Created never crosses the wire — wall clocks differ between hosts;
// the client stamps arrival time instead.
func encodeEvent(ev push.Event) []byte {
	var e enc
	e.u64(ev.Seq)
	e.i32(ev.Step)
	e.i32(ev.File)
	e.f64(ev.Time)
	e.str(ev.Path)
	e.str(ev.StepID)
	e.u16(uint16(len(ev.Fields)))
	for _, f := range ev.Fields {
		e.str(f)
	}
	return e.b
}

// decodeEvent parses a non-empty OpEvent frame.
func decodeEvent(body []byte) (push.Event, error) {
	d := dec{b: body}
	ev := push.Event{
		Seq:  d.u64(),
		Step: d.i32(),
		File: d.i32(),
		Time: d.f64(),
	}
	ev.Path = d.str()
	ev.StepID = d.str()
	n := int(d.u16())
	for i := 0; i < n && d.err == nil; i++ {
		ev.Fields = append(ev.Fields, d.str())
	}
	if d.err != nil {
		return push.Event{}, fmt.Errorf("%w: event frame: %v", ErrProtocol, d.err)
	}
	return ev, nil
}

// encodeIngestSegments serializes an OpIngest request as scattered frame
// segments: the destination path, then the standard FilePayload body (whose
// alignment pads adapt to the path prefix — see segEnc.filePayload). Array
// segments alias fp's slices; the caller must keep them alive until the
// frame is written. limit bounds the total payload size.
func encodeIngestSegments(path string, fp *FilePayload, limit int) (segs [][]byte, copied int64, err error) {
	var s segEnc
	s.e.str(path)
	s.filePayload(fp)
	s.flush()
	if s.base > limit {
		return nil, 0, fmt.Errorf("%w (%d bytes, limit %d)", ErrFrameTooLarge, s.base, limit)
	}
	return s.segs, s.copied, nil
}

// decodeIngestReq parses an OpIngest request.
func decodeIngestReq(body []byte) (path string, fp *FilePayload, copied int64, err error) {
	d := dec{b: body}
	path = d.str()
	fp = d.filePayload()
	if d.err != nil {
		return "", nil, 0, fmt.Errorf("%w: ingest request: %v", ErrProtocol, d.err)
	}
	fp.Path = path
	return path, fp, d.copied, nil
}
