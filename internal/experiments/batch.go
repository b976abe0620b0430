package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"godiva/internal/genx"
	"godiva/internal/remote"
)

// The batch sweep measures the two halves of the batched read path. The RPC
// half fetches one 8-file snapshot unit repeatedly at different OpFetchBatch
// sizes and counts wire round-trips: the same payload bytes should ride
// fewer, larger frames as the batch grows. The cache half points several
// clients at a small hot set of files and compares the server's pinned
// payload cache on and off: with the cache on, repeat fetches are served
// from already-encoded segments, so the hit ratio climbs and the server
// stops re-copying payload bytes.

// BatchSweepConfig configures the batch sweep. Zero fields take the
// defaults noted on each field.
type BatchSweepConfig struct {
	Dir      string    // dataset directory (generated if incomplete)
	Spec     genx.Spec // dataset spec (default genx.Scaled(16) with 8 files/snapshot)
	Batches  []int     // OpFetchBatch sizes to sweep (default 1, 2, 4, 8)
	Reps     int       // unit fetches per RPC cell (default 8)
	Clients  int       // concurrent clients in the hot-set cells (default 8)
	Rounds   int       // hot-set passes per client (default 4)
	HotFiles int       // hot-set size in files (default 4)
	Log      func(format string, args ...any)
}

func (cfg *BatchSweepConfig) setDefaults() {
	if cfg.Spec.Blocks == 0 {
		cfg.Spec = genx.Scaled(16)
		// The acceptance workload is the paper's 8-file snapshot unit; the
		// scaled spec shrinks FilesPerSnapshot, so restore it.
		cfg.Spec.FilesPerSnapshot = 8
		cfg.Spec.Snapshots = 2
	}
	if len(cfg.Batches) == 0 {
		cfg.Batches = []int{1, 2, 4, 8}
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 8
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 4
	}
	if cfg.HotFiles <= 0 {
		cfg.HotFiles = 4
	}
	if cfg.HotFiles > cfg.Spec.FilesPerSnapshot {
		cfg.HotFiles = cfg.Spec.FilesPerSnapshot
	}
}

func (cfg *BatchSweepConfig) logf(format string, args ...any) {
	if cfg.Log != nil {
		cfg.Log(format, args...)
	}
}

// BatchCell reports one batch-size run of the RPC half: Reps fetches of the
// same Files-file unit at one MaxBatch setting.
type BatchCell struct {
	MaxBatch    int           // client batch cap (1 = one file per OpFetchBatch)
	Files       int           // files per unit fetch
	Reps        int           // unit fetches measured
	Wall        time.Duration // wall time for all Reps fetches
	RPCs        int64         // wire round-trips issued
	BatchedRPCs int64         // of those, OpFetchBatch frames
	BytesIn     int64         // response payload bytes received
	Throughput  float64       // payload MB/s over the wall time
}

// HotSetCell reports one cache configuration of the hot-set half: Clients
// concurrent clients each fetching the same HotFiles-file set Rounds times.
type HotSetCell struct {
	Cache      bool          // server payload cache enabled
	Clients    int           // concurrent clients
	Rounds     int           // hot-set passes per client
	Files      int           // files in the hot set
	Wall       time.Duration // wall time for all clients to finish
	Hits       int64         // payload-cache hits across all fetches
	Misses     int64         // payload-cache misses (responses encoded fresh)
	HitRatio   float64       // Hits / (Hits + Misses); 0 with the cache off
	BytesFrom  int64         // payload bytes scatter-sent from the cache
	SrvCopied  int64         // server-side payload bytes copied into frames
	CliCopied  int64         // client-side payload bytes copied while decoding
	BytesIn    int64         // payload bytes received across all clients
	Throughput float64       // payload MB/s over the wall time
}

// runBatchCell fetches the unit cfg.Reps times through a fresh client with
// the given batch cap, against a server with the payload cache disabled so
// every rep pays the full encode and the cell isolates pure RPC batching.
func runBatchCell(cfg BatchSweepConfig, addr string, maxBatch int) (*BatchCell, error) {
	client := remote.NewClient(remote.ClientOptions{Addr: addr, MaxBatch: maxBatch})
	defer client.Close()
	paths := cfg.Spec.SnapshotFiles("", 0)
	vars := remoteSweepVars()
	start := time.Now()
	for rep := 0; rep < cfg.Reps; rep++ {
		fps, err := client.FetchFiles(paths, vars)
		if err != nil {
			return nil, fmt.Errorf("batch=%d rep %d: %w", maxBatch, rep, err)
		}
		for _, fp := range fps {
			fp.Recycle()
		}
	}
	wall := time.Since(start)
	rs := client.Stats()
	cell := &BatchCell{
		MaxBatch:    maxBatch,
		Files:       len(paths),
		Reps:        cfg.Reps,
		Wall:        wall,
		RPCs:        rs.RPCs,
		BatchedRPCs: rs.BatchedRPCs,
		BytesIn:     rs.BytesIn,
	}
	if wall > 0 {
		cell.Throughput = float64(rs.BytesIn) / 1e6 / wall.Seconds()
	}
	return cell, nil
}

// runHotSetCell points cfg.Clients fresh clients at the hot set, each
// fetching it cfg.Rounds times, against a server whose payload cache is on
// or off. The server is created per cell so its counters are the cell's.
func runHotSetCell(cfg BatchSweepConfig, cache bool) (*HotSetCell, error) {
	opts := remote.ServerOptions{Dir: cfg.Dir}
	if !cache {
		opts.PayloadCache = -1
	}
	srv, err := remote.Serve(opts)
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	paths := cfg.Spec.SnapshotFiles("", 0)[:cfg.HotFiles]
	vars := remoteSweepVars()
	clients := make([]*remote.Client, cfg.Clients)
	for i := range clients {
		clients[i] = remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
		defer clients[i].Close()
	}

	errs := make([]error, cfg.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *remote.Client) {
			defer wg.Done()
			for round := 0; round < cfg.Rounds; round++ {
				fps, err := c.FetchFiles(paths, vars)
				if err != nil {
					errs[i] = fmt.Errorf("client %d round %d: %w", i, round, err)
					return
				}
				for _, fp := range fps {
					fp.Recycle()
				}
			}
		}(i, c)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	ss := srv.Stats()
	cell := &HotSetCell{
		Cache:     cache,
		Clients:   cfg.Clients,
		Rounds:    cfg.Rounds,
		Files:     cfg.HotFiles,
		Wall:      wall,
		Hits:      ss.PayloadCacheHits,
		Misses:    ss.PayloadCacheMisses,
		BytesFrom: ss.BytesServedFromCache,
		SrvCopied: ss.BytesCopied,
	}
	for _, c := range clients {
		rs := c.Stats()
		cell.CliCopied += rs.BytesCopied
		cell.BytesIn += rs.BytesIn
	}
	if total := cell.Hits + cell.Misses; total > 0 {
		cell.HitRatio = float64(cell.Hits) / float64(total)
	}
	if wall > 0 {
		cell.Throughput = float64(cell.BytesIn) / 1e6 / wall.Seconds()
	}
	return cell, nil
}

// RunBatchSweep generates the dataset if needed and runs both halves: one
// BatchCell per batch size, then hot-set cells with the payload cache off
// and on.
func RunBatchSweep(cfg BatchSweepConfig) ([]*BatchCell, []*HotSetCell, error) {
	cfg.setDefaults()
	setup := &Setup{Spec: cfg.Spec, Dir: cfg.Dir, Log: cfg.Log}
	if err := EnsureDataset(setup); err != nil {
		return nil, nil, err
	}

	// The RPC half runs against one cache-less server, so every cell's
	// fetches pay the same per-file encode cost and only the framing varies.
	srv, err := remote.Serve(remote.ServerOptions{Dir: cfg.Dir, PayloadCache: -1})
	if err != nil {
		return nil, nil, err
	}
	var bcells []*BatchCell
	for _, b := range cfg.Batches {
		cfg.logf("batch sweep: batch=%d…", b)
		cell, err := runBatchCell(cfg, srv.Addr(), b)
		if err != nil {
			if cerr := srv.Close(); cerr != nil {
				err = fmt.Errorf("%w (and closing server: %v)", err, cerr)
			}
			return nil, nil, err
		}
		bcells = append(bcells, cell)
	}
	if err := srv.Close(); err != nil {
		return nil, nil, err
	}

	var hcells []*HotSetCell
	for _, cache := range []bool{false, true} {
		cfg.logf("batch sweep: hot set, cache=%v…", cache)
		cell, err := runHotSetCell(cfg, cache)
		if err != nil {
			return nil, nil, err
		}
		hcells = append(hcells, cell)
	}
	return bcells, hcells, nil
}

// PrintBatchSweep writes both halves of the batch sweep as tables.
func PrintBatchSweep(w io.Writer, bcells []*BatchCell, hcells []*HotSetCell) {
	fmt.Fprintf(w, "\nBatched fetches (one %d-file unit x %d reps, payload cache off):\n",
		orZero(bcells, func(c *BatchCell) int { return c.Files }),
		orZero(bcells, func(c *BatchCell) int { return c.Reps }))
	fmt.Fprintf(w, "%6s %6s %8s %10s %12s %12s\n",
		"batch", "RPCs", "batched", "wall (ms)", "MB in", "MB/s")
	for _, c := range bcells {
		fmt.Fprintf(w, "%6d %6d %8d %10.1f %12.1f %12.1f\n",
			c.MaxBatch, c.RPCs, c.BatchedRPCs,
			float64(c.Wall.Microseconds())/1e3,
			float64(c.BytesIn)/1e6, c.Throughput)
	}
	fmt.Fprintf(w, "\nPinned payload cache (%d clients x %d rounds over a %d-file hot set):\n",
		orZero(hcells, func(c *HotSetCell) int { return c.Clients }),
		orZero(hcells, func(c *HotSetCell) int { return c.Rounds }),
		orZero(hcells, func(c *HotSetCell) int { return c.Files }))
	fmt.Fprintf(w, "%6s %6s %8s %6s %12s %12s %10s %12s\n",
		"cache", "hits", "misses", "ratio", "MB cached", "MB copied", "wall (ms)", "MB/s")
	for _, c := range hcells {
		fmt.Fprintf(w, "%6v %6d %8d %6.2f %12.1f %12.1f %10.1f %12.1f\n",
			c.Cache, c.Hits, c.Misses, c.HitRatio,
			float64(c.BytesFrom)/1e6, float64(c.SrvCopied+c.CliCopied)/1e6,
			float64(c.Wall.Microseconds())/1e3, c.Throughput)
	}
}

// orZero returns f of the first cell, or 0 for an empty sweep.
func orZero[T any](cells []*T, f func(*T) int) int {
	if len(cells) == 0 {
		return 0
	}
	return f(cells[0])
}

// batchCellJSON is the machine-readable form of a BatchCell.
type batchCellJSON struct {
	MaxBatch      int     `json:"max_batch"`
	Files         int     `json:"files"`
	Reps          int     `json:"reps"`
	WallMS        float64 `json:"wall_ms"`
	RPCs          int64   `json:"rpcs"`
	BatchedRPCs   int64   `json:"batched_rpcs"`
	BytesIn       int64   `json:"bytes_in"`
	ThroughputMBs float64 `json:"throughput_mb_s"`
}

// hotSetCellJSON is the machine-readable form of a HotSetCell.
type hotSetCellJSON struct {
	Cache                bool    `json:"cache"`
	Clients              int     `json:"clients"`
	Rounds               int     `json:"rounds"`
	Files                int     `json:"files"`
	WallMS               float64 `json:"wall_ms"`
	Hits                 int64   `json:"hits"`
	Misses               int64   `json:"misses"`
	HitRatio             float64 `json:"hit_ratio"`
	BytesServedFromCache int64   `json:"bytes_served_from_cache"`
	ServerBytesCopied    int64   `json:"server_bytes_copied"`
	ClientBytesCopied    int64   `json:"client_bytes_copied"`
	BytesIn              int64   `json:"bytes_in"`
	ThroughputMBs        float64 `json:"throughput_mb_s"`
}

// WriteBatchJSON writes both halves of the sweep as a JSON document (the
// bench's BENCH_batch.json artifact).
func WriteBatchJSON(path string, bcells []*BatchCell, hcells []*HotSetCell) error {
	out := struct {
		Experiment string           `json:"experiment"`
		Batch      []batchCellJSON  `json:"batch_cells"`
		HotSet     []hotSetCellJSON `json:"hotset_cells"`
	}{Experiment: "batch-sweep"}
	for _, c := range bcells {
		out.Batch = append(out.Batch, batchCellJSON{
			MaxBatch:      c.MaxBatch,
			Files:         c.Files,
			Reps:          c.Reps,
			WallMS:        float64(c.Wall.Microseconds()) / 1e3,
			RPCs:          c.RPCs,
			BatchedRPCs:   c.BatchedRPCs,
			BytesIn:       c.BytesIn,
			ThroughputMBs: c.Throughput,
		})
	}
	for _, c := range hcells {
		out.HotSet = append(out.HotSet, hotSetCellJSON{
			Cache:                c.Cache,
			Clients:              c.Clients,
			Rounds:               c.Rounds,
			Files:                c.Files,
			WallMS:               float64(c.Wall.Microseconds()) / 1e3,
			Hits:                 c.Hits,
			Misses:               c.Misses,
			HitRatio:             c.HitRatio,
			BytesServedFromCache: c.BytesFrom,
			ServerBytesCopied:    c.SrvCopied,
			ClientBytesCopied:    c.CliCopied,
			BytesIn:              c.BytesIn,
			ThroughputMBs:        c.Throughput,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
