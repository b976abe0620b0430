package remote_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"godiva/internal/core"
	"godiva/internal/genx"
	"godiva/internal/remote"
	"godiva/internal/zerocopy"
)

// allPaths lists every snapshot file of spec, in dataset order.
func allPaths(spec genx.Spec) []string {
	var paths []string
	for s := 0; s < spec.Snapshots; s++ {
		paths = append(paths, spec.SnapshotFiles("", s)...)
	}
	return paths
}

// sameBlocks fails the test unless two payloads carry identical block data.
func sameBlocks(t *testing.T, got, want *remote.FilePayload) {
	t.Helper()
	if len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("block count %d != %d", len(got.Blocks), len(want.Blocks))
	}
	for i, g := range got.Blocks {
		w := want.Blocks[i]
		if g.Name != w.Name || g.StepID != w.StepID {
			t.Fatalf("block %d is %s/%s, want %s/%s", i, g.Name, g.StepID, w.Name, w.StepID)
		}
		if len(g.Mesh.Coords) != len(w.Mesh.Coords) {
			t.Fatalf("block %s coords %d != %d", g.Name, len(g.Mesh.Coords), len(w.Mesh.Coords))
		}
		for j, v := range g.Mesh.Coords {
			if v != w.Mesh.Coords[j] {
				t.Fatalf("block %s coord %d: %v != %v", g.Name, j, v, w.Mesh.Coords[j])
			}
		}
		for name, gv := range g.Node {
			wv := w.Node[name]
			if len(gv) != len(wv) {
				t.Fatalf("block %s field %s: %d != %d values", g.Name, name, len(gv), len(wv))
			}
			for j, v := range gv {
				if v != wv[j] {
					t.Fatalf("block %s field %s[%d]: %v != %v", g.Name, name, j, v, wv[j])
				}
			}
		}
	}
}

// An 8-file unit over OpFetchBatch costs one RPC instead of eight, and the
// payloads are identical to per-file fetches.
func TestFetchFilesBatchedE2E(t *testing.T) {
	spec := testSpec()
	srv := startServer(t, writeDataset(t, spec), remote.Faults{})
	paths := allPaths(spec) // 4 snapshots x 2 files = 8
	if len(paths) != 8 {
		t.Fatalf("want an 8-file set, got %d", len(paths))
	}

	// Reference payloads one file per RPC, on a separate client.
	ref := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer ref.Close()
	want := make([]*remote.FilePayload, len(paths))
	for i, p := range paths {
		fp, err := ref.FetchFile(p, testVars)
		if err != nil {
			t.Fatal(err)
		}
		defer fp.Recycle()
		want[i] = fp
	}
	refRPCs := ref.Stats().RPCs
	if refRPCs != int64(len(paths)) {
		t.Fatalf("per-file fetches used %d RPCs, want %d", refRPCs, len(paths))
	}
	refBatches := srv.Stats().BatchRPCs

	c := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer c.Close()
	fps, err := c.FetchFiles(paths, testVars)
	if err != nil {
		t.Fatal(err)
	}
	for i, fp := range fps {
		if fp.Path != paths[i] {
			t.Fatalf("payload %d is %q, want %q", i, fp.Path, paths[i])
		}
		sameBlocks(t, fp, want[i])
		fp.Recycle()
	}
	rs := c.Stats()
	if rs.RPCs != 1 || rs.BatchedRPCs != 1 {
		t.Fatalf("batched fetch used %d RPCs (%d batched), want 1 (1)", rs.RPCs, rs.BatchedRPCs)
	}
	if rs.Fetches != int64(len(paths)) {
		t.Fatalf("Fetches = %d, want %d", rs.Fetches, len(paths))
	}
	if refRPCs < 3*rs.RPCs {
		// 8 vs 1: comfortably past the 3x acceptance bar.
		t.Fatalf("batching saved too little: %d vs %d RPCs", refRPCs, rs.RPCs)
	}
	if n := srv.Stats().BatchRPCs - refBatches; n != 1 {
		t.Fatalf("server answered %d batch RPCs for the unit, want 1", n)
	}
}

// A batch whose items partly fail answers file by file: good files arrive,
// bad files carry their own error.
func TestFetchFilesPartialFailure(t *testing.T) {
	spec := testSpec()
	srv := startServer(t, writeDataset(t, spec), remote.Faults{})
	c := remote.NewClient(remote.ClientOptions{Addr: srv.Addr(), MaxRetries: 1})
	defer c.Close()

	good := genx.SnapshotFile("", 0, 0)
	if _, err := c.FetchFiles([]string{good, "missing_9999.shdf"}, testVars); err == nil {
		t.Fatal("batch with a missing file must fail that fetch")
	}
	// The good file is still servable afterwards (its payload was recycled
	// by the failing FetchFiles call, not leaked).
	fp, err := c.FetchFile(good, testVars)
	if err != nil {
		t.Fatal(err)
	}
	fp.Recycle()
}

// Eight clients hammering a 4-file hot set are served from the payload
// cache: ratio >= 0.75, no payload bytes copied, and the cached bytes are
// identical to a cold fetch.
func TestPayloadCacheHotSetE2E(t *testing.T) {
	spec := testSpec()
	srv := startServer(t, writeDataset(t, spec), remote.Faults{})
	hot := spec.SnapshotFiles("", 0)
	hot = append(hot, spec.SnapshotFiles("", 1)...) // 4 files
	if len(hot) != 4 {
		t.Fatalf("want a 4-file hot set, got %d", len(hot))
	}

	cold := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer cold.Close()
	want := make(map[string]*remote.FilePayload)
	for _, p := range hot {
		fp, err := cold.FetchFile(p, testVars)
		if err != nil {
			t.Fatal(err)
		}
		defer fp.Recycle()
		want[p] = fp
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		c := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
		defer c.Close()
		wg.Add(1)
		go func(c *remote.Client, w int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				p := hot[(w+round)%len(hot)]
				fp, err := c.FetchFile(p, testVars)
				if err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				fp.Recycle()
			}
		}(c, w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	ss := srv.Stats()
	total := ss.PayloadCacheHits + ss.PayloadCacheMisses
	if total == 0 {
		t.Fatal("payload cache saw no traffic")
	}
	ratio := float64(ss.PayloadCacheHits) / float64(total)
	if ratio < 0.75 {
		t.Fatalf("hit ratio %.2f (%d/%d), want >= 0.75", ratio, ss.PayloadCacheHits, total)
	}
	if ss.BytesServedFromCache == 0 {
		t.Fatal("BytesServedFromCache = 0 despite hits")
	}
	if zerocopy.LittleEndian && ss.BytesCopied != 0 {
		t.Fatalf("server copied %d payload bytes, want 0", ss.BytesCopied)
	}

	// Cached bytes decode to the same payload a cold fetch produced.
	check := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer check.Close()
	for _, p := range hot {
		fp, err := check.FetchFile(p, testVars)
		if err != nil {
			t.Fatal(err)
		}
		sameBlocks(t, fp, want[p])
		fp.Recycle()
	}
}

// Ingesting a replacement file drops its cached response: the next fetch
// sees the new bytes, never the cached old ones.
func TestPayloadCacheInvalidatedByIngest(t *testing.T) {
	srv := startIngestServer(t, remote.Faults{})
	c := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer c.Close()

	spec := genx.Scaled(32)
	spec.Snapshots = 1
	var path string
	var origBlocks []*genx.BlockData
	err := genx.StreamDataset(spec, func(step, file int, blocks []*genx.BlockData) error {
		if file != 0 || step != 0 {
			return nil
		}
		path = genx.SnapshotFile("", step, file)
		origBlocks = blocks
		return c.Ingest(path, filePayload(blocks))
	})
	if err != nil {
		t.Fatal(err)
	}

	// Warm the cache, then prove a hit.
	fp, err := c.FetchFile(path, []string{"velocity"})
	if err != nil {
		t.Fatal(err)
	}
	firstCoord := fp.Blocks[0].Mesh.Coords[0]
	fp.Recycle()
	if fp, err = c.FetchFile(path, []string{"velocity"}); err != nil {
		t.Fatal(err)
	}
	fp.Recycle()
	if ss := srv.Stats(); ss.PayloadCacheHits == 0 {
		t.Fatalf("no cache hit on a repeated fetch: %+v", ss)
	}

	// Replace the file with shifted geometry and refetch.
	for _, bd := range origBlocks {
		for i := range bd.Mesh.Coords {
			bd.Mesh.Coords[i] += 1000
		}
	}
	if err := c.Ingest(path, filePayload(origBlocks)); err != nil {
		t.Fatal(err)
	}
	if fp, err = c.FetchFile(path, []string{"velocity"}); err != nil {
		t.Fatal(err)
	}
	defer fp.Recycle()
	got := fp.Blocks[0].Mesh.Coords[0]
	if got != firstCoord+1000 {
		t.Fatalf("fetch after ingest returned coord %v, want %v (stale cache?)", got, firstCoord+1000)
	}
	if ss := srv.Stats(); ss.PayloadCacheEvictions == 0 {
		t.Fatalf("ingest did not evict the cached payload: %+v", ss)
	}
}

// Pooled connections idle past IdleConnTimeout are recycled, so a client
// that outlives a server restart redials instead of fetching on dead TCP
// state.
func TestConnPoolRecyclesAcrossRestart(t *testing.T) {
	spec := testSpec()
	dir := writeDataset(t, spec)
	srv1, err := remote.Serve(remote.ServerOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr()

	c := remote.NewClient(remote.ClientOptions{
		Addr:            addr,
		IdleConnTimeout: 50 * time.Millisecond,
	})
	defer c.Close()
	fp, err := c.FetchFile(genx.SnapshotFile("", 0, 0), testVars)
	if err != nil {
		t.Fatal(err)
	}
	fp.Recycle()

	// Restart the server on the same address while the client idles past
	// its timeout; the pooled conn to srv1 must be reaped, not reused.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	var srv2 *remote.Server
	for i := 0; ; i++ {
		srv2, err = remote.Serve(remote.ServerOptions{Addr: addr, Dir: dir})
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer srv2.Close()

	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().ConnsRecycled == 0 {
		if time.Now().After(deadline) {
			t.Fatal("reaper never recycled the idle conn")
		}
		time.Sleep(10 * time.Millisecond)
	}

	before := c.Stats()
	if fp, err = c.FetchFile(genx.SnapshotFile("", 1, 0), testVars); err != nil {
		t.Fatal(err)
	}
	fp.Recycle()
	after := c.Stats()
	if after.Retries != before.Retries {
		t.Fatalf("fetch after restart burned %d retries; the stale conn should have been recycled",
			after.Retries-before.Retries)
	}
}

// Conn max age recycles even a busy connection's pooled state.
func TestConnPoolMaxAge(t *testing.T) {
	spec := testSpec()
	srv := startServer(t, writeDataset(t, spec), remote.Faults{})
	c := remote.NewClient(remote.ClientOptions{
		Addr:            srv.Addr(),
		ConnMaxAge:      40 * time.Millisecond,
		IdleConnTimeout: -1, // isolate the age path
	})
	defer c.Close()
	path := genx.SnapshotFile("", 0, 0)
	for i := 0; i < 3; i++ {
		fp, err := c.FetchFile(path, testVars)
		if err != nil {
			t.Fatal(err)
		}
		fp.Recycle()
		time.Sleep(60 * time.Millisecond)
	}
	if rs := c.Stats(); rs.ConnsRecycled == 0 {
		t.Fatalf("ConnsRecycled = 0 after conns aged out: %+v", rs)
	}
}

// The read function must commit files strictly in resolver order, whether
// the unit is one RPC or several chunks. Across chunks it overlaps wire and
// commit: while chunk 0 commits, chunk 1's fetch is already on the wire.
func TestReadFuncCommitOrder(t *testing.T) {
	spec := testSpec()
	srv := startServer(t, writeDataset(t, spec), remote.Faults{})

	run := func(t *testing.T, maxBatch int, paths []string, wantRPCs int64) {
		ref := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
		defer ref.Close()
		var want []string
		for _, p := range paths {
			fp, err := ref.FetchFile(p, testVars)
			if err != nil {
				t.Fatal(err)
			}
			for _, bd := range fp.Blocks {
				want = append(want, bd.Name+"@"+bd.StepID)
			}
			fp.Recycle()
		}

		c := remote.NewClient(remote.ClientOptions{Addr: srv.Addr(), MaxBatch: maxBatch})
		defer c.Close()
		var mu sync.Mutex
		var got []string
		overlapped := false
		record := func(u *core.Unit, bd *genx.BlockData) error {
			mu.Lock()
			if got = append(got, bd.Name+"@"+bd.StepID); len(got) == 1 && wantRPCs > 1 {
				// Committing chunk 0's first block: wait for chunk 1's RPC.
				deadline := time.Now().Add(5 * time.Second)
				for c.Stats().RPCs < 2 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				overlapped = c.Stats().RPCs >= 2
			}
			mu.Unlock()
			return commitTestBlock(u, bd)
		}
		db := core.Open(core.Options{MemoryLimit: 256 << 20, BackgroundIO: true, IOWorkers: 2})
		defer db.Close()
		defineTestSchema(t, db)
		resolve := func(string) ([]string, error) { return paths, nil }
		if err := db.AddUnit("unit", remote.NewReadFunc(c, resolve, testVars, record)); err != nil {
			t.Fatal(err)
		}
		if err := db.WaitUnit("unit"); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("commit order broken\n got: %v\nwant: %v", got, want)
		}
		if wantRPCs > 1 && !overlapped {
			t.Fatal("fetch of chunk 1 did not overlap commit of chunk 0")
		}
		if rs := c.Stats(); rs.RPCs != wantRPCs || rs.BatchedRPCs != wantRPCs {
			t.Fatalf("unit used %d RPCs (%d batched), want %d", rs.RPCs, rs.BatchedRPCs, wantRPCs)
		}
	}

	t.Run("batched", func(t *testing.T) {
		run(t, 0, spec.SnapshotFiles("", 0), 1)
	})
	// 8 files at 3 per RPC: chunks of 3, 3 and 2.
	t.Run("multichunk", func(t *testing.T) {
		run(t, 3, allPaths(spec), 3)
	})
	t.Run("perfile", func(t *testing.T) {
		run(t, 1, spec.SnapshotFiles("", 0), 2)
	})
}

// FetchFiles on a closed client and with zero paths behaves.
func TestFetchFilesEdgeCases(t *testing.T) {
	spec := testSpec()
	srv := startServer(t, writeDataset(t, spec), remote.Faults{})
	c := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	if fps, err := c.FetchFiles(nil, testVars); err != nil || fps != nil {
		t.Fatalf("FetchFiles(nil) = %v, %v", fps, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchFiles(allPaths(spec), testVars); err != remote.ErrClientClosed {
		t.Fatalf("FetchFiles on closed client = %v, want ErrClientClosed", err)
	}
}
