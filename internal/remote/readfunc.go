package remote

import (
	"fmt"

	"godiva/internal/core"
	"godiva/internal/genx"
)

// Resolver maps a processing-unit name to the snapshot files holding its
// data, as paths in the server's namespace (relative to godivad's -data
// directory). The paper passes the unit name back to the read function for
// exactly this kind of name-to-dataset mapping.
type Resolver func(unit string) ([]string, error)

// CommitFunc stores one fetched block into the database through the unit
// handle, the remote counterpart of the commit step inside a local read
// function. It must copy field data into database buffers: the BlockData
// may be shared with coalesced fetchers, and its arrays alias a pooled
// response buffer that NewReadFunc recycles once the file is committed.
type CommitFunc func(u *core.Unit, bd *genx.BlockData) error

// fetched is one chunk's payloads (or fetch error) traveling from the
// fetcher to the committer, in paths order.
type fetched struct {
	fps []*FilePayload
	err error
}

// NewReadFunc manufactures a developer-supplied read function (paper §3.3)
// backed by a godivad server: it resolves the unit name to snapshot files,
// fetches each file's blocks with the given variables, and commits them.
// The returned function plugs into AddUnit/ReadUnit like any local read
// function — background workers prefetch remote units, failures after retry
// exhaustion land the unit in the failed state exactly like a local read
// error, and N workers asking for the same file share one RPC.
//
// A unit of up to MaxBatch files is one OpFetchBatch RPC, committed inline.
// Larger units are pipelined: a fetcher goroutine stays one MaxBatch chunk
// ahead of the commit loop, so the wire time of chunk i+1 overlaps
// committing chunk i. Files are committed strictly in paths order.
func NewReadFunc(c *Client, resolve Resolver, vars []string, commit CommitFunc) core.ReadFunc {
	return func(u *core.Unit) error {
		paths, err := resolve(u.Name())
		if err != nil {
			return err
		}
		chunk := c.opts.MaxBatch
		if len(paths) <= chunk {
			// One RPC: nothing to overlap.
			fps, err := c.FetchFiles(paths, vars)
			if err != nil {
				return err
			}
			return commitPayloads(u, fps, commit)
		}

		// The unbuffered channel is the pipeline: the fetcher hands over
		// chunk i, then fetches chunk i+1 while chunk i commits. Chunks
		// arrive in paths order.
		out := make(chan fetched)
		stop := make(chan struct{})
		go func() {
			defer close(out)
			for start := 0; start < len(paths); start += chunk {
				fps, err := c.FetchFiles(paths[start:min(start+chunk, len(paths))], vars)
				select {
				case out <- fetched{fps: fps, err: err}:
				case <-stop:
					recycleAll(fps) // committer bailed
					return
				}
				if err != nil {
					return
				}
			}
		}()
		defer func() {
			close(stop)
			// Drain until the fetcher closes out, so it never blocks on a
			// send nobody receives; recycle whatever it had in flight.
			for f := range out {
				recycleAll(f.fps)
			}
		}()

		for f := range out {
			if f.err != nil {
				return f.err
			}
			if err := commitPayloads(u, f.fps, commit); err != nil {
				return err
			}
		}
		return nil
	}
}

// commitPayloads commits every block of every payload in order, recycling
// each payload once committed (committed buffers are copies, so the
// backing frame can go back to the pool for the next fetch). On error the
// remaining payloads are recycled uncommitted.
func commitPayloads(u *core.Unit, fps []*FilePayload, commit CommitFunc) error {
	for i, fp := range fps {
		for _, bd := range fp.Blocks {
			if err := commit(u, bd); err != nil {
				err = fmt.Errorf("remote: commit %s block %s: %w", fp.Path, bd.Name, err)
				recycleAll(fps[i:])
				return err
			}
		}
		fp.Recycle()
	}
	return nil
}

// recycleAll recycles every payload of a chunk.
func recycleAll(fps []*FilePayload) {
	for _, fp := range fps {
		fp.Recycle()
	}
}
