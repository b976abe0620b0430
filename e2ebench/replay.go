package main

import (
	"bytes"
	"errors"
	"fmt"
	"image/png"
	"strings"
	"sync/atomic"
	"time"

	"godiva/internal/core"
	"godiva/internal/genx"
	"godiva/internal/mesh"
	"godiva/internal/render"
	"godiva/internal/rocketeer"
	"godiva/internal/vis"
)

// replayer re-runs Voyager's visualization passes from the benchmark's own
// calls — core.GetFieldBuffer, then vis, then render.DrawSurface — so the
// traced run can time the vis and render layers, which the tools only enter
// from inside rocketeer. Each replayed image must equal the tool's image
// byte for byte, which shows the replay does the same work.
type replayer struct {
	tr     *tracer
	r      *render.Renderer
	blocks []string
	images int
	tris   int64
}

func newReplayer(tr *tracer, spec genx.Spec) *replayer {
	names := make([]string, spec.Blocks)
	for b := range names {
		names[b] = genx.BlockID(b)
	}
	return &replayer{tr: tr, r: render.NewRenderer(imgW, imgH), blocks: names}
}

// pass renders one pass of op over the snapshot stepID held in db and
// returns the PNG, mirroring rocketeer's per-pass pipeline step for step.
func (rp *replayer) pass(db *core.DB, stepID string, op rocketeer.Op, parent int, req string) ([]byte, error) {
	meshes := make([]*mesh.TetMesh, len(rp.blocks))
	scalars := make([][]float64, len(rp.blocks))
	var lo, hi float64
	var boundsLo, boundsHi mesh.Vec3
	for i, name := range rp.blocks {
		sp := rp.tr.begin("core.query", "core", parent, req, tidConsumer)
		m, data, err := blockData(db, name, stepID, op.Var)
		rp.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("block %s: %w", name, err)
		}
		sp = rp.tr.begin("vis.node_scalar", "vis", parent, req, tidConsumer)
		ns, err := nodeScalar(m, op.Var, data)
		rp.tr.end(sp)
		if err != nil {
			return nil, err
		}
		meshes[i], scalars[i] = m, ns
		blo, bhi := m.Bounds()
		slo, shi := vis.ScalarRange(ns)
		if i == 0 {
			lo, hi = slo, shi
			boundsLo, boundsHi = blo, bhi
			continue
		}
		lo = minf(lo, slo)
		hi = maxf(hi, shi)
		boundsLo = mesh.Vec3{X: minf(boundsLo.X, blo.X), Y: minf(boundsLo.Y, blo.Y), Z: minf(boundsLo.Z, blo.Z)}
		boundsHi = mesh.Vec3{X: maxf(boundsHi.X, bhi.X), Y: maxf(boundsHi.Y, bhi.Y), Z: maxf(boundsHi.Z, bhi.Z)}
	}
	agg := &vis.TriSurface{}
	for i := range meshes {
		sp := rp.tr.begin("vis."+geometryName(op.Kind), "vis", parent, req, tidConsumer)
		part, err := geometry(op, meshes[i], scalars[i], lo, hi, boundsLo, boundsHi)
		if err == nil {
			agg.Append(part)
		}
		rp.tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	sp := rp.tr.begin("render.draw", "render", parent, req, tidConsumer)
	rp.r.Clear()
	err := rp.r.DrawSurface(agg, render.DefaultCamera(boundsLo, boundsHi), render.Rainbow{}, lo, hi)
	rp.tr.end(sp)
	if err != nil {
		return nil, err
	}
	rp.images++
	rp.tris += rp.r.TrisDrawn
	sp = rp.tr.begin("render.png", "render", parent, req, tidConsumer)
	var buf bytes.Buffer
	err = png.Encode(&buf, rp.r.Image())
	rp.tr.end(sp)
	return buf.Bytes(), err
}

// blockData queries one block's mesh and variable out of the database. The
// slices alias database buffers and are valid while the unit is pinned.
func blockData(db *core.DB, block, stepID, variable string) (*mesh.TetMesh, []float64, error) {
	f64 := func(field string) ([]float64, error) {
		buf, err := db.GetFieldBuffer(recBlock, field, block, stepID)
		if err != nil {
			return nil, err
		}
		return buf.Float64s()
	}
	coords, err := f64("coords")
	if err != nil {
		return nil, nil, err
	}
	connBuf, err := db.GetFieldBuffer(recBlock, "conn", block, stepID)
	if err != nil {
		return nil, nil, err
	}
	conn, err := connBuf.Int32s()
	if err != nil {
		return nil, nil, err
	}
	gidsBuf, err := db.GetFieldBuffer(recBlock, "gids", block, stepID)
	if err != nil {
		return nil, nil, err
	}
	gids, err := gidsBuf.Int64s()
	if err != nil {
		return nil, nil, err
	}
	data, err := f64(variable)
	if err != nil {
		return nil, nil, err
	}
	return &mesh.TetMesh{Coords: coords, Tets: conn, GlobalNode: gids}, data, nil
}

// queriesPerBlock is how many GetFieldBuffer calls blockData makes.
const queriesPerBlock = 4

func nodeScalar(m *mesh.TetMesh, field string, data []float64) ([]float64, error) {
	switch len(data) {
	case 3 * m.NumNodes():
		return vis.VectorMagnitude(data), nil
	case m.NumCells():
		return vis.CellToPoint(m, data)
	}
	return nil, fmt.Errorf("variable %s has %d values for %d nodes / %d cells",
		field, len(data), m.NumNodes(), m.NumCells())
}

func geometry(op rocketeer.Op, m *mesh.TetMesh, ns []float64, lo, hi float64, blo, bhi mesh.Vec3) (*vis.TriSurface, error) {
	switch op.Kind {
	case rocketeer.OpSurface:
		return vis.ExtractSurface(m, ns)
	case rocketeer.OpIso:
		return vis.IsoSurface(m, ns, lo+op.IsoFrac*(hi-lo), ns)
	case rocketeer.OpSlice:
		return vis.SlicePlane(m, plane(op, blo, bhi), ns)
	case rocketeer.OpCut:
		return vis.CutPlane(m, plane(op, blo, bhi), ns)
	}
	return nil, fmt.Errorf("unknown op kind %d", int(op.Kind))
}

// plane places a slice or cut plane the way rocketeer does: through the
// x/y centre of the bounds, at PlaneFrac of the z extent.
func plane(op rocketeer.Op, lo, hi mesh.Vec3) vis.Plane {
	n := op.PlaneNormal
	if n == (mesh.Vec3{}) {
		n = mesh.Vec3{Z: 1}
	}
	return vis.Plane{Origin: mesh.Vec3{
		X: lo.X + (hi.X-lo.X)*0.5,
		Y: lo.Y + (hi.Y-lo.Y)*0.5,
		Z: lo.Z + (hi.Z-lo.Z)*op.PlaneFrac,
	}, Normal: n}
}

func geometryName(k rocketeer.OpKind) string {
	switch k {
	case rocketeer.OpSurface:
		return "surface"
	case rocketeer.OpIso:
		return "iso"
	case rocketeer.OpSlice:
		return "slice"
	case rocketeer.OpCut:
		return "cut"
	}
	return "op"
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// batch replays one test over snapshots in Voyager's batch pattern: every
// unit is added up front for the I/O worker to prefetch, then each is
// waited for, rendered pass by pass and deleted. check receives every image
// under Voyager's file name for it.
func (rp *replayer) batch(db *core.DB, read core.ReadFunc, spec genx.Spec, test rocketeer.VisTest, steps []int, check func(name string, img []byte)) error {
	for _, s := range steps {
		if err := db.AddUnit(unitName(s), read); err != nil {
			return err
		}
	}
	for _, s := range steps {
		name := unitName(s)
		root := rp.tr.begin("bench.snapshot", "bench", 0, name, tidConsumer)
		sp := rp.tr.begin("core.wait", "core", root, name, tidConsumer)
		err := db.WaitUnit(name)
		rp.tr.end(sp)
		if err != nil {
			rp.tr.end(root)
			return err
		}
		for oi, op := range test.Ops {
			var img []byte
			pass := rp.tr.begin("bench.pass", "bench", root, name, tidConsumer)
			img, err = rp.pass(db, spec.StepID(s), op, pass, name)
			rp.tr.end(pass)
			if err != nil {
				break
			}
			check(imageName(test.Name, s, oi, op), img)
		}
		sp = rp.tr.begin("core.delete", "core", root, name, tidConsumer)
		err = errors.Join(err, db.DeleteUnit(name))
		rp.tr.end(sp)
		rp.tr.end(root)
		if err != nil {
			return err
		}
	}
	return nil
}

// view is one interactive request: a feature of a variable at a snapshot.
type view struct {
	Step    int
	Feature string
	Var     string
	Param   float64
}

func (v view) op() rocketeer.Op {
	switch v.Feature {
	case "iso":
		return rocketeer.Op{Kind: rocketeer.OpIso, Var: v.Var, IsoFrac: v.Param}
	case "slice":
		return rocketeer.Op{Kind: rocketeer.OpSlice, Var: v.Var, PlaneFrac: v.Param}
	case "cut":
		return rocketeer.Op{Kind: rocketeer.OpCut, Var: v.Var, PlaneFrac: v.Param}
	}
	return rocketeer.Op{Kind: rocketeer.OpSurface, Var: v.Var}
}

// interactive replays views the way an interactive session serves them:
// a blocking ReadUnit (a cache hit when the snapshot is still resident),
// one pass, then FinishUnit so the snapshot stays cached until the LRU
// evicts it. The read runs inline on the viewer, so its spans nest under
// the ReadUnit span through current.
func (rp *replayer) interactive(db *core.DB, read core.ReadFunc, spec genx.Spec, views []view, current *atomic.Int64, check func(i int, img []byte)) error {
	for i, v := range views {
		name := unitName(v.Step)
		req := fmt.Sprintf("view_%05d", i)
		root := rp.tr.begin("bench.view", "bench", 0, req, tidConsumer)
		sp := rp.tr.begin("core.read_unit", "core", root, req, tidConsumer)
		current.Store(int64(sp))
		err := db.ReadUnit(name, read)
		current.Store(0)
		rp.tr.end(sp)
		if err != nil {
			rp.tr.end(root)
			return err
		}
		img, err := rp.pass(db, spec.StepID(v.Step), v.op(), root, req)
		if err == nil {
			check(i, img)
		}
		sp = rp.tr.begin("core.finish", "core", root, req, tidConsumer)
		err = errors.Join(err, db.FinishUnit(name))
		rp.tr.end(sp)
		rp.tr.end(root)
		if err != nil {
			return err
		}
	}
	return nil
}

// replayMetrics derives the vis, render, genx and core call costs from a
// replay's spans.
func replayMetrics(spans []span, rp *replayer) map[string]float64 {
	total := map[string]time.Duration{}
	count := map[string]int{}
	var queryUS []float64
	for _, s := range spans {
		total[s.name] += s.end - s.start
		count[s.name]++
		if s.name == "core.query" {
			queryUS = append(queryUS, float64((s.end-s.start).Nanoseconds())/1e3/queriesPerBlock)
		}
	}
	passes := map[string]int{}
	for _, s := range spans {
		if strings.HasPrefix(s.name, "vis.") && s.name != "vis.node_scalar" {
			passes[s.name]++
		}
	}
	m := map[string]float64{}
	perImage := func(name string) float64 {
		if rp.images == 0 {
			return 0
		}
		return ms(total[name]) / float64(rp.images)
	}
	// Geometry spans are per block; divide by blocks to get per image.
	for _, k := range []string{"surface", "iso", "slice", "cut"} {
		name := "vis." + k
		if n := passes[name]; n > 0 {
			m[name+"_ms"] = ms(total[name]) / (float64(n) / float64(len(rp.blocks)))
		}
	}
	m["vis.node_scalar_ms"] = perImage("vis.node_scalar")
	m["render.draw_ms"] = perImage("render.draw")
	if rp.images > 0 {
		m["render.tris_per_image"] = float64(rp.tris) / float64(rp.images)
	}
	if n := count["genx.read_block"]; n > 0 {
		m["genx.read_block_ms"] = ms(total["genx.read_block"]) / float64(n)
	}
	if n := count["genx.read_unit"] + count["remote.read_unit"]; n > 0 {
		m["core.commit_ms_per_unit"] = ms(total["core.commit"]) / float64(n)
	}
	m["core.query_us_p50"] = median(queryUS)
	return m
}
