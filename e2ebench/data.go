package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"godiva/internal/core"
	"godiva/internal/genx"
	"godiva/internal/remote"
	"godiva/internal/rocketeer"
)

// Image size of every rendered frame (Voyager's default).
const imgW, imgH = 160, 120

// The benchmark's own GODIVA schema, the one Voyager uses: one record per
// block per snapshot, keyed by block ID and time-step ID.
const (
	recBlock = "block"
	keyBlock = "block id"
	keyStep  = "time-step id"
)

// allVars lists every variable a snapshot file holds, in file order.
func allVars() []string {
	return append(append([]string{}, genx.NodeVectorFields...), genx.ElemScalarFields...)
}

// fileOrder sorts variables into file order and drops duplicates.
func fileOrder(vars []string) []string {
	want := make(map[string]bool)
	for _, v := range vars {
		want[v] = true
	}
	var out []string
	for _, v := range allVars() {
		if want[v] {
			out = append(out, v)
		}
	}
	return out
}

// testVars is the union of the three visualization tests' variables.
func testVars() []string {
	var vars []string
	for _, t := range rocketeer.Tests() {
		vars = append(vars, t.Vars...)
	}
	return fileOrder(vars)
}

// openDB opens a database with the block schema defined.
func openDB(opts core.Options) (*core.DB, error) {
	db := core.Open(opts)
	if err := defineSchema(db); err != nil {
		if cerr := db.Close(); cerr != nil {
			err = fmt.Errorf("%w (and close failed: %v)", err, cerr)
		}
		return nil, err
	}
	return db, nil
}

func defineSchema(db *core.DB) error {
	if err := db.DefineField(keyBlock, core.String, 11); err != nil {
		return err
	}
	if err := db.DefineField(keyStep, core.String, 9); err != nil {
		return err
	}
	fields := []struct {
		name string
		t    core.DataType
	}{{"coords", core.Float64}, {"conn", core.Int32}, {"gids", core.Int64}}
	for _, v := range allVars() {
		fields = append(fields, struct {
			name string
			t    core.DataType
		}{v, core.Float64})
	}
	for _, f := range fields {
		if err := db.DefineField(f.name, f.t, core.Unknown); err != nil {
			return err
		}
	}
	if err := db.DefineRecordType(recBlock, 2); err != nil {
		return err
	}
	if err := db.InsertField(recBlock, keyBlock, true); err != nil {
		return err
	}
	if err := db.InsertField(recBlock, keyStep, true); err != nil {
		return err
	}
	for _, f := range fields {
		if err := db.InsertField(recBlock, f.name, false); err != nil {
			return err
		}
	}
	return db.CommitRecordType(recBlock)
}

func unitName(step int) string { return fmt.Sprintf("snap_%04d", step) }

func unitStep(unit string) (int, error) {
	var step int
	if n, _ := fmt.Sscanf(unit, "snap_%d", &step); n != 1 {
		return 0, fmt.Errorf("bad unit name %q", unit)
	}
	return step, nil
}

// readHooks ties the spans a read function records to the request that
// caused the read: parent returns the span a unit's read nests under (0
// makes the read a root on a background track).
type readHooks struct {
	tr     *tracer
	parent func(unit string) int
	tracks *trackSlots
	commit committer
}

// where returns the parent span and track of a read of unit.
func (h *readHooks) where(unit string) (parent, tid int) {
	if h.parent != nil {
		if p := h.parent(unit); p != 0 {
			return p, tidConsumer
		}
	}
	return 0, h.tracks.get()
}

func (h *readHooks) done(parent, tid int) {
	if parent == 0 {
		h.tracks.put(tid)
	}
}

// committer times the commits and remembers, per unit, the span and track
// its commits nest under.
type committer struct {
	nanos atomic.Int64
	spans sync.Map // unit name -> [2]int{parent span, track}
}

// commit stores one block as a record, copying every array into database
// buffers (the remote payload's arrays are recycled after the commit).
func (h *readHooks) commitBlock(u *core.Unit, bd *genx.BlockData) error {
	parent, tid := 0, tidConsumer
	if v, ok := h.commit.spans.Load(u.Name()); ok {
		w := v.([2]int)
		parent, tid = w[0], w[1]
	}
	sp := h.tr.begin("core.commit", "core", parent, u.Name(), tid)
	start := time.Now()
	err := commitRecord(u, bd)
	h.commit.nanos.Add(int64(time.Since(start)))
	h.tr.end(sp)
	return err
}

func commitRecord(u *core.Unit, bd *genx.BlockData) error {
	rec, err := u.NewRecord(recBlock)
	if err != nil {
		return err
	}
	if err := rec.SetString(keyBlock, bd.Name); err != nil {
		return err
	}
	if err := rec.SetString(keyStep, bd.StepID); err != nil {
		return err
	}
	if err := putF64(rec, "coords", bd.Mesh.Coords); err != nil {
		return err
	}
	buf, err := rec.AllocFieldBuffer("conn", 4*len(bd.Mesh.Tets))
	if err != nil {
		return err
	}
	conn, err := buf.Int32s()
	if err != nil {
		return err
	}
	copy(conn, bd.Mesh.Tets)
	buf, err = rec.AllocFieldBuffer("gids", 8*len(bd.Mesh.GlobalNode))
	if err != nil {
		return err
	}
	gids, err := buf.Int64s()
	if err != nil {
		return err
	}
	copy(gids, bd.Mesh.GlobalNode)
	for _, fields := range []map[string][]float64{bd.Node, bd.Elem} {
		for name, data := range fields {
			if err := putF64(rec, name, data); err != nil {
				return err
			}
		}
	}
	return u.DB().CommitRecord(rec)
}

func putF64(rec *core.Record, field string, data []float64) error {
	buf, err := rec.AllocFieldBuffer(field, 8*len(data))
	if err != nil {
		return err
	}
	dst, err := buf.Float64s()
	if err != nil {
		return err
	}
	copy(dst, data)
	return nil
}

// localRead is a read function over local SHDF snapshot files: every block
// of the unit's snapshot is read through genx and committed.
func (h *readHooks) localRead(spec genx.Spec, dir string, vars []string) core.ReadFunc {
	reader := &genx.Reader{}
	return func(u *core.Unit) error {
		step, err := unitStep(u.Name())
		if err != nil {
			return err
		}
		parent, tid := h.where(u.Name())
		defer h.done(parent, tid)
		root := h.tr.begin("genx.read_unit", "genx", parent, u.Name(), tid)
		defer h.tr.end(root)
		h.commit.spans.Store(u.Name(), [2]int{root, tid})
		for _, path := range spec.SnapshotFiles(dir, step) {
			fh, err := reader.Open(path)
			if err != nil {
				return err
			}
			for _, e := range fh.Blocks() {
				sp := h.tr.begin("genx.read_block", "genx", root, u.Name(), tid)
				bd, err := fh.ReadBlock(e, vars)
				h.tr.end(sp)
				if err == nil {
					err = h.commitBlock(u, bd)
				}
				if err != nil {
					return errors.Join(err, fh.Close())
				}
			}
			if err := fh.Close(); err != nil {
				return err
			}
		}
		return nil
	}
}

// remoteRead is a read function that fetches the unit's snapshot files from
// a godivad server through remote.NewReadFunc. Its span's self time is the
// fetch time: the read function's time minus the commits inside it.
func (h *readHooks) remoteRead(c *remote.Client, spec genx.Spec, vars []string) core.ReadFunc {
	inner := remote.NewReadFunc(c, func(unit string) ([]string, error) {
		step, err := unitStep(unit)
		if err != nil {
			return nil, err
		}
		return spec.SnapshotFiles("", step), nil
	}, vars, h.commitBlock)
	return func(u *core.Unit) error {
		parent, tid := h.where(u.Name())
		defer h.done(parent, tid)
		root := h.tr.begin("remote.read_unit", "remote", parent, u.Name(), tid)
		defer h.tr.end(root)
		h.commit.spans.Store(u.Name(), [2]int{root, tid})
		return inner(u)
	}
}

// fold mixes float64 values into an FNV-style checksum; order matters.
func fold(h uint64, xs []float64) uint64 {
	for _, x := range xs {
		h ^= math.Float64bits(x)
		h *= 1099511628211
	}
	return h
}

const foldSeed = 14695981039346656037

// directChecksums reads every snapshot straight from its files with
// genx.Reader and folds the given variables of every block, in block order,
// into one checksum per snapshot: the oracle for the scan's core path.
func directChecksums(spec genx.Spec, dir string, vars []string) ([]uint64, error) {
	reader := &genx.Reader{}
	sums := make([]uint64, spec.Snapshots)
	for step := range sums {
		blocks := make(map[string]*genx.BlockData)
		for _, path := range spec.SnapshotFiles(dir, step) {
			fh, err := reader.Open(path)
			if err != nil {
				return nil, err
			}
			for _, e := range fh.Blocks() {
				bd, err := fh.ReadBlock(e, vars)
				if err != nil {
					return nil, errors.Join(err, fh.Close())
				}
				blocks[bd.Name] = bd
			}
			if err := fh.Close(); err != nil {
				return nil, err
			}
		}
		h := uint64(foldSeed)
		for b := 0; b < spec.Blocks; b++ {
			bd := blocks[genx.BlockID(b)]
			if bd == nil {
				return nil, fmt.Errorf("snapshot %d: block %s missing", step, genx.BlockID(b))
			}
			for _, v := range vars {
				data, ok := bd.Node[v]
				if !ok {
					data = bd.Elem[v]
				}
				h = fold(h, data)
			}
		}
		sums[step] = h
	}
	return sums, nil
}

// renderReferences renders the given tests with the original (O) Voyager
// build over the dataset in dataDir and returns the PNGs by file name.
func renderReferences(spec genx.Spec, dataDir, imgDir string, tests []rocketeer.VisTest) (map[string][]byte, error) {
	for _, t := range tests {
		if _, err := rocketeer.Run(rocketeer.VersionO, rocketeer.Config{
			Test: t, Spec: spec, Dir: dataDir, ImageDir: imgDir, Width: imgW, Height: imgH,
		}); err != nil {
			return nil, fmt.Errorf("reference %s: %w", t.Name, err)
		}
	}
	return loadImages(imgDir)
}

func loadImages(dir string) (map[string][]byte, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = data
	}
	return out, nil
}

// imageName is the file name Voyager gives pass oi of a test at a snapshot.
func imageName(test string, step, oi int, op rocketeer.Op) string {
	return fmt.Sprintf("%s_t%04d_%02d_%s_%s.png", test, step, oi, op.Kind, op.Var)
}

// compareImages checks every image in dir byte for byte against its
// reference, named by ref(file name). It returns how many images it checked
// and a description of each mismatch.
func compareImages(dir string, refs map[string][]byte, ref func(name string) string) (int, []string, error) {
	got, err := loadImages(dir)
	if err != nil {
		return 0, nil, err
	}
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	var bad []string
	for _, n := range names {
		want, ok := refs[ref(n)]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: no reference %s", n, ref(n)))
		} else if !bytes.Equal(got[n], want) {
			bad = append(bad, fmt.Sprintf("%s: differs from reference %s", n, ref(n)))
		}
	}
	return len(names), bad, nil
}

// digestDir feeds every file of dir, in name order, to the input digest.
func digestDir(w io.Writer, dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(w, "%s\n", e.Name())
		n, err := io.Copy(w, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}
