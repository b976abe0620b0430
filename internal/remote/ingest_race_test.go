package remote_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"godiva/internal/genx"
	"godiva/internal/remote"
)

// Concurrent producers re-ingesting one path each get an ack, and every
// fetch in between decodes to one whole ingested version: never a torn
// file (CodeCorrupt) or a spurious rename error from a shared temp file.
// A crashed ingest's temp file is swept at startup, and no ingest leaves
// one behind. Producers pick versions from seeded RNGs. Run under -race.
func TestIngestSamePathStress(t *testing.T) {
	const clients, rounds = 4, 200
	spec := genx.Scaled(64)
	spec.Snapshots = 1
	var base []*genx.BlockData
	if err := genx.StreamDataset(spec, func(step, file int, blocks []*genx.BlockData) error {
		if step == 0 && file == 0 {
			base = blocks
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Version v shifts every coordinate by 1000·v, so a fetched file's
	// first coordinate names its version and every other one must agree.
	versions := make([]*remote.FilePayload, clients)
	for v := range versions {
		var blocks []*genx.BlockData
		for _, bd := range base {
			cp, m := *bd, *bd.Mesh
			m.Coords = make([]float64, len(bd.Mesh.Coords))
			for j, x := range bd.Mesh.Coords {
				m.Coords[j] = x + 1000*float64(v)
			}
			cp.Mesh = &m
			blocks = append(blocks, &cp)
		}
		versions[v] = filePayload(blocks)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "genx_t0000_0.shdf.123456.ingest"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := remote.Serve(remote.ServerOptions{Dir: dir, Ingest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	path := genx.SnapshotFile("", 0, 0)

	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := remote.NewClient(remote.ClientOptions{Addr: srv.Addr(), PoolSize: 1})
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(7 + w)))
			for round := 0; round < rounds; round++ {
				err := c.Ingest(path, versions[rng.Intn(clients)])
				var fp *remote.FilePayload
				if err == nil {
					fp, err = c.FetchFile(path, nil)
				}
				if err == nil {
					err = sameVersion(fp, base)
					fp.Recycle()
				}
				if err != nil {
					t.Errorf("client %d round %d: %v", w, round, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if left, _ := filepath.Glob(filepath.Join(dir, "*.ingest")); len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

// sameVersion checks that fp's coordinates are base's shifted by one
// version offset throughout: one whole ingested file, never a mix.
func sameVersion(fp *remote.FilePayload, base []*genx.BlockData) error {
	if len(fp.Blocks) != len(base) {
		return fmt.Errorf("fetched %d blocks, want %d", len(fp.Blocks), len(base))
	}
	v := math.Round((fp.Blocks[0].Mesh.Coords[0] - base[0].Mesh.Coords[0]) / 1000)
	for i, bd := range fp.Blocks {
		want := base[i].Mesh.Coords
		if len(bd.Mesh.Coords) != len(want) {
			return fmt.Errorf("block %d: %d coords, want %d", i, len(bd.Mesh.Coords), len(want))
		}
		for j, x := range bd.Mesh.Coords {
			if x != want[j]+1000*v {
				return fmt.Errorf("block %d coord %d is not version %v", i, j, v)
			}
		}
	}
	return nil
}
