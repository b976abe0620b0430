package remote

import (
	"fmt"
	"strings"
)

// OpFetchBatch is the protocol's one fetch op: it packs k (path, vars)
// fetches into one RPC and the server answers with one multi-file RespOK
// frame, so a k-file unit costs one round trip instead of k. A single fetch
// is a batch of one.
//
// Request payload:
//
//	u16 count | per item: str path | u16 nvars | str vars...
//
// Response payload (RespOK):
//
//	u32 count
//	per item: u8 status
//	          status 1 (error): u16 code | str msg
//	          status 0 (ok):    pad to 4 | u32 bodyLen | pad to 8 |
//	                            bodyLen bytes of FilePayload body
//
// Every ok item's body starts at an 8-byte payload offset, so the body's
// internal alignment pads — computed against the body's own start when it
// was encoded (and cached) on its own — line up with the whole frame's
// alignment and both sides keep aliasing array data in place.
//
// An item that fits the frame alone but not beside its batch mates answers
// CodeUnavailable ("batch frame full"); the client re-fetches it once as a
// batch of one. A lone item never answers frame-full: the server encodes
// every item against maxItemBody, the budget a one-item frame leaves, so a
// body over it fails permanently (ErrFrameTooLarge, CodeInternal) instead.

// itemPreamble is the worst-case ok-item preamble: status byte, pad to 4,
// u32 length, pad to 8.
const itemPreamble = 15

// maxItemBody is the largest item body a one-item frame can carry: the
// frame budget less the u32 item count and the item preamble.
const maxItemBody = maxFrame - 2 - 4 - itemPreamble

// fetchReq is one decoded batch request item.
type fetchReq struct {
	path string
	vars []string
}

// encodeBatchReq serializes an OpFetchBatch request.
func encodeBatchReq(items []*batchItem) []byte {
	var e enc
	e.u16(uint16(len(items)))
	for _, it := range items {
		e.str(it.path)
		e.u16(uint16(len(it.vars)))
		for _, v := range it.vars {
			e.str(v)
		}
	}
	return e.b
}

// decodeBatchReq parses an OpFetchBatch request.
func decodeBatchReq(body []byte) ([]fetchReq, error) {
	d := dec{b: body}
	n := int(d.u16())
	// Every item costs at least 4 body bytes (path length prefix plus
	// variable count), so a count beyond that is a corrupt or hostile
	// frame; reject it before it sizes the allocation below.
	if n > (len(body)-2)/4 {
		return nil, fmt.Errorf("%w: batch count %d exceeds frame", ErrProtocol, n)
	}
	reqs := make([]fetchReq, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		var r fetchReq
		r.path = d.str()
		nv := int(d.u16())
		for j := 0; j < nv && d.err == nil; j++ {
			r.vars = append(r.vars, d.str())
		}
		reqs = append(reqs, r)
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: batch request: %v", ErrProtocol, d.err)
	}
	return reqs, nil
}

// batchResult is one decoded batch response item: a payload, or a
// server-side per-item error (batch responses fail file by file, so one
// missing snapshot does not poison its whole unit).
type batchResult struct {
	fp  *FilePayload
	err *ServerError
}

// appendBatchItem appends one response item to the frame under
// construction: an error item, or an ok item whose body segments are
// borrowed verbatim (either freshly encoded or straight from the payload
// cache — the segments' internal pads are offset-relative, and the item
// header pads the body to a frame offset of 0 mod 8, so they compose).
func (s *segEnc) appendBatchItem(bodySegs [][]byte, bodyLen int, serr *ServerError) {
	if serr != nil {
		s.e.b = append(s.e.b, 1)
		s.e.u16(serr.Code)
		s.e.str(serr.Msg)
		return
	}
	s.e.b = append(s.e.b, 0)
	s.alignTo(4)
	s.e.u32(uint32(bodyLen))
	s.alignTo(8)
	s.flush()
	for _, seg := range bodySegs {
		if len(seg) > 0 {
			s.segs = append(s.segs, seg)
			s.base += len(seg)
		}
	}
}

// decodeBatchItems parses an OpFetchBatch response into per-item results.
// Ok bodies are decoded in place: their arrays alias body's backing buffer
// exactly like single-file responses. copied reports array bytes that could
// not be aliased.
func decodeBatchItems(body []byte) (results []batchResult, copied int64, err error) {
	d := dec{b: body}
	n := int(d.u32())
	for i := 0; i < n && d.err == nil; i++ {
		st := d.need(1)
		if st == nil {
			break
		}
		if st[0] != 0 {
			code := d.u16()
			msg := d.str()
			if d.err != nil {
				break
			}
			results = append(results, batchResult{err: &ServerError{Code: code, Msg: msg}})
			continue
		}
		d.align(4)
		blen := int(d.u32())
		d.align(8)
		raw := d.need(blen)
		if raw == nil {
			break
		}
		sub := dec{b: raw}
		fp := sub.filePayload()
		if sub.err != nil {
			return nil, 0, fmt.Errorf("%w: batch item %d: %v", ErrProtocol, i, sub.err)
		}
		copied += sub.copied
		results = append(results, batchResult{fp: fp})
	}
	if d.err != nil {
		return nil, 0, fmt.Errorf("%w: batch response: %v", ErrProtocol, d.err)
	}
	return results, copied, nil
}

// --- client batching ---

// batchItem is one client-side fetch owned by a batch: its single-flight
// call entry plus the request it stands for.
type batchItem struct {
	key  string
	path string
	vars []string
	cl   *call
}

// fetchKey is the single-flight coalescing key of a (path, vars) fetch.
func fetchKey(path string, vars []string) string {
	return path + "\x00" + strings.Join(vars, "\x00")
}

// FetchFiles fetches several snapshot files' payloads in one OpFetchBatch
// round trip (chunked at MaxBatch files per RPC), returning payloads in
// paths order: every block with its mesh arrays plus the named variable
// fields. Concurrent fetches of the same (path, vars) join a single RPC, so
// a payload may be shared and must be treated as read-only. Its arrays
// alias a pooled response frame shared with its batch mates: every caller
// that got a payload should call its Recycle when done with it (and must
// not touch it afterwards) so the buffer is reused. On error every
// already-fetched payload is recycled and nil is returned.
func (c *Client) FetchFiles(paths []string, vars []string) ([]*FilePayload, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	calls := make([]*call, len(paths))
	var owned []*batchItem
	for i, path := range paths {
		key := fetchKey(path, vars)
		c.stats.Fetches++
		if cl, ok := c.calls[key]; ok {
			c.stats.Coalesced++
			cl.joiners++
			calls[i] = cl
			continue
		}
		cl := &call{done: make(chan struct{})}
		c.calls[key] = cl
		calls[i] = cl
		owned = append(owned, &batchItem{key: key, path: path, vars: vars, cl: cl})
	}
	c.mu.Unlock()
	for start := 0; start < len(owned); start += c.opts.MaxBatch {
		c.fetchBatchChunk(owned[start:min(start+c.opts.MaxBatch, len(owned))])
	}

	out := make([]*FilePayload, len(paths))
	var firstErr error
	for i, cl := range calls {
		fp, err := c.await(cl)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out[i] = fp
	}
	if firstErr != nil {
		for _, fp := range out {
			if fp != nil {
				fp.Recycle()
			}
		}
		return nil, firstErr
	}
	return out, nil
}

// fetchBatchChunk issues one OpFetchBatch RPC for up to MaxBatch items and
// completes their calls. An item answered "batch frame full" is re-fetched
// once as a batch of one, whose answer is final, so re-fetches never loop.
func (c *Client) fetchBatchChunk(items []*batchItem) {
	body, buf, err := c.rpc(OpFetchBatch, encodeBatchReq(items))
	var results []batchResult
	var copied int64
	if err == nil {
		c.mu.Lock()
		c.stats.BatchedRPCs++
		c.mu.Unlock()
		results, copied, err = decodeBatchItems(body)
		if err == nil && len(results) != len(items) {
			err = fmt.Errorf("%w: batch response has %d items, want %d", ErrProtocol, len(results), len(items))
		}
		if err != nil {
			putFrameBuf(buf)
		}
	}
	if err != nil {
		for _, it := range items {
			c.complete(it, nil, nil, fmt.Errorf("remote: fetch %q: %w", it.path, err), 0)
		}
		return
	}
	arena := &frameArena{buf: buf}
	nOK := 0
	for _, r := range results {
		if r.fp != nil {
			nOK++
		}
	}
	if nOK == 0 {
		putFrameBuf(buf)
		arena = nil
	} else {
		arena.refs.Store(int32(nOK))
	}
	perItemCopied := copied // charged once, on the first ok item
	for i, r := range results {
		it := items[i]
		switch {
		case r.fp != nil:
			r.fp.Path = it.path
			c.complete(it, r.fp, arena, nil, perItemCopied)
			perItemCopied = 0
		case r.err.Retryable() && len(items) > 1:
			// The item did not fit beside its batch mates: fetch it alone.
			c.fetchBatchChunk(items[i : i+1])
		default:
			c.complete(it, nil, nil, fmt.Errorf("remote: fetch %q: %w", it.path, r.err), 0)
		}
	}
}

// complete publishes an owned call's result: the call leaves the
// single-flight table, the payload's reference count covers the owner plus
// every coalesced joiner, and the closed done channel releases them all.
func (c *Client) complete(it *batchItem, fp *FilePayload, arena *frameArena, err error, copied int64) {
	c.mu.Lock()
	delete(c.calls, it.key)
	joiners := it.cl.joiners // final: no joiner can arrive after the delete
	if err != nil {
		c.stats.Errors++
	} else {
		c.stats.BytesCopied += copied
	}
	c.mu.Unlock()
	if fp != nil && arena != nil {
		fp.arena = arena
		fp.refs.Store(int32(1 + joiners))
	}
	// lint:ignore lockcheck cl.fp/cl.err are published by close(cl.done):
	// waiters only read them after receiving from the channel, which
	// happens-after this write. The mutex never guards these fields.
	it.cl.fp, it.cl.err = fp, err
	close(it.cl.done)
}
