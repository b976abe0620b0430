package remote

import (
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

// scriptedPeer is a fake godivad: it answers every OpFetchBatch with
// answer(reqs) and records each request's paths; any other op fails the
// test. No real frame reaches the 1 GiB cap, so "batch frame full" is only
// reachable this way.
func scriptedPeer(t *testing.T, answer func(reqs []fetchReq) [][]byte) (addr string, requests func() [][]string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var seen [][]string
	serve := func(conn net.Conn) {
		defer wg.Done()
		defer conn.Close()
		for {
			op, body, err := readFrame(conn)
			if err != nil {
				return
			}
			reqs, err := decodeBatchReq(body)
			if op != OpFetchBatch || err != nil {
				t.Errorf("peer got op %#02x (%v), want OpFetchBatch", op, err)
				writeFrame(conn, RespErr, encodeErr(CodeBadRequest, "unknown op"))
				continue
			}
			var paths []string
			for _, r := range reqs {
				paths = append(paths, r.path)
			}
			mu.Lock()
			seen = append(seen, paths)
			mu.Unlock()
			if writeFrameBuffers(conn, RespOK, answer(reqs)) != nil {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go serve(conn)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String(), func() [][]string {
		mu.Lock()
		defer mu.Unlock()
		return append([][]string(nil), seen...)
	}
}

// scriptedPayload is the payload the scripted peer serves for path: the
// sample payload, stamped with the path as its step ID so mix-ups show.
func scriptedPayload(path string) *FilePayload {
	fp := samplePayload()
	fp.StepID = path
	return fp
}

// An item answered "batch frame full" is re-fetched exactly once, alone, as
// a batch of one; the answer to that lone re-fetch is final.
func TestBatchFrameFullRefetch(t *testing.T) {
	paths := []string{"genx_t0000_0.shdf", "genx_t0000_1.shdf"}
	for _, tc := range []struct {
		name string
		full func(reqs []fetchReq, i int) bool
	}{
		// Only a shared frame is full: the re-fetch completes the fetch.
		{"refetched", func(reqs []fetchReq, i int) bool { return len(reqs) > 1 && i == 1 }},
		// A misbehaving peer: the second file never fits, even alone.
		{"final", func(reqs []fetchReq, i int) bool { return reqs[i].path == paths[1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, requests := scriptedPeer(t, func(reqs []fetchReq) [][]byte {
				var out segEnc
				out.e.u32(uint32(len(reqs)))
				for i, r := range reqs {
					if tc.full(reqs, i) {
						out.appendBatchItem(nil, 0, &ServerError{Code: CodeUnavailable, Msg: "batch frame full"})
						continue
					}
					segs, _, _ := encodeFilePayloadSegments(scriptedPayload(r.path), maxItemBody)
					out.appendBatchItem(segs, len(flattenSegments(segs)), nil)
				}
				out.flush()
				return out.segs
			})
			c := NewClient(ClientOptions{Addr: addr, MaxRetries: 1, RetryBase: time.Millisecond})
			defer c.Close()

			fps, err := c.FetchFiles(paths, []string{"velocity"})
			var se *ServerError
			switch {
			case tc.name == "final":
				if !errors.As(err, &se) || se.Code != CodeUnavailable || se.Msg != "batch frame full" {
					t.Fatalf("FetchFiles = %v, want the batch-frame-full error", err)
				}
			case err != nil:
				t.Fatal(err)
			default:
				for i, fp := range fps {
					if fp.Path != paths[i] {
						t.Fatalf("payload %d is %q, want %q", i, fp.Path, paths[i])
					}
					samePayload(t, fp, scriptedPayload(paths[i]))
					fp.Recycle()
				}
			}
			if rs := c.Stats(); rs.RPCs != 2 || rs.BatchedRPCs != 2 || rs.Retries != 0 {
				t.Fatalf("client stats = %+v, want 2 batched RPCs and no retries", rs)
			}
			if got, want := requests(), [][]string{paths, paths[1:]}; !reflect.DeepEqual(got, want) {
				t.Fatalf("peer saw requests %v, want %v", got, want)
			}
		})
	}
}
