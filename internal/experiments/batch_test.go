package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"godiva/internal/genx"
)

// The batch sweep must move the same payload bytes in every RPC cell while
// the round-trip count shrinks with the batch size, and the cached hot-set
// cell must out-hit the uncached one. This is the acceptance workload at
// test scale: an 8-file unit and a 4-file hot set.
func TestBatchSweep(t *testing.T) {
	spec := genx.Scaled(32)
	spec.FilesPerSnapshot = 8
	spec.Snapshots = 2
	dir := t.TempDir()
	cfg := BatchSweepConfig{
		Dir:     filepath.Join(dir, "data"),
		Spec:    spec,
		Batches: []int{1, 8},
		Reps:    2,
		Clients: 4,
		Rounds:  2,
	}
	bcells, hcells, err := RunBatchSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(bcells) != 2 || len(hcells) != 2 {
		t.Fatalf("got %d batch + %d hotset cells, want 2+2", len(bcells), len(hcells))
	}

	perFile, batched := bcells[0], bcells[1]
	// Equal payloads up to framing: batch=1 pays a frame's item count per
	// file where batch=8 shares one per unit, so allow a 1% framing delta.
	diff := perFile.BytesIn - batched.BytesIn
	if diff < 0 {
		diff = -diff
	}
	if diff*100 > perFile.BytesIn {
		t.Errorf("payload bytes differ across batch sizes: %d vs %d",
			perFile.BytesIn, batched.BytesIn)
	}
	// Acceptance: >= 3x fewer RPCs for the 8-file unit at equal bytes.
	if batched.RPCs == 0 || perFile.RPCs < 3*batched.RPCs {
		t.Errorf("batch=8 used %d RPCs vs %d per-file, want >= 3x fewer",
			batched.RPCs, perFile.RPCs)
	}
	if batched.BatchedRPCs == 0 {
		t.Error("batch=8 cell answered no OpFetchBatch frames")
	}
	if perFile.BatchedRPCs != perFile.RPCs {
		t.Errorf("batch=1 cell answered %d of %d RPCs as OpFetchBatch frames, want all",
			perFile.BatchedRPCs, perFile.RPCs)
	}

	cold, warm := hcells[0], hcells[1]
	if cold.Cache || !warm.Cache {
		t.Fatalf("hot-set cells out of order: cache=%v then %v", cold.Cache, warm.Cache)
	}
	if cold.Hits != 0 || cold.BytesFrom != 0 {
		t.Errorf("cache-off cell recorded %d hits, %d cached bytes", cold.Hits, cold.BytesFrom)
	}
	// Acceptance: hit ratio >= 0.75 on the hot set. 4 clients x 2 rounds x
	// 4 files = 32 fetches, 4 cold misses -> 0.875 minimum here.
	if warm.HitRatio < 0.75 {
		t.Errorf("hot-set hit ratio = %.2f, want >= 0.75", warm.HitRatio)
	}
	if warm.BytesFrom == 0 {
		t.Error("cache-on cell served no bytes from the cache")
	}
	if warm.BytesIn != cold.BytesIn {
		t.Errorf("hot-set payload bytes differ: cache on %d, off %d",
			warm.BytesIn, cold.BytesIn)
	}

	path := filepath.Join(dir, "BENCH_batch.json")
	if err := WriteBatchJSON(path, bcells, hcells); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiment string `json:"experiment"`
		Batch      []struct {
			MaxBatch int   `json:"max_batch"`
			RPCs     int64 `json:"rpcs"`
		} `json:"batch_cells"`
		HotSet []struct {
			Cache    bool    `json:"cache"`
			HitRatio float64 `json:"hit_ratio"`
		} `json:"hotset_cells"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("BENCH_batch.json does not parse: %v", err)
	}
	if doc.Experiment != "batch-sweep" || len(doc.Batch) != 2 || len(doc.HotSet) != 2 {
		t.Fatalf("JSON artifact: experiment=%q, %d batch + %d hotset cells",
			doc.Experiment, len(doc.Batch), len(doc.HotSet))
	}
}
