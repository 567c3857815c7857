package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	vaq "repro"
	"repro/internal/core"
	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/voronoi"
	"repro/internal/wire"
)

// coreAcc sums the engine's own work counters (WithStatsInto) and phase
// timings (WithTraceInto) over the traced phase's queries. A result-cache
// hit reports the Stats memoized from an earlier execution, so the work
// counters and the work phases are averaged over executed regions only.
type coreAcc struct {
	mu       sync.Mutex
	regions  int // every region answered
	executed int // regions the engine computed, not taken from a result cache
	st       vaq.Stats
	phases   map[obs.Phase]time.Duration
}

var accPhases = []obs.Phase{obs.PhaseSeed, obs.PhaseExpand, obs.PhasePageFetch, obs.PhaseMerge, obs.PhaseCacheLookup}

// add folds in one operation answering regions regions; hit says a result
// cache answered it.
func (a *coreAcc) add(regions int, st *vaq.Stats, tr *vaq.QueryTrace, hit bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.phases == nil {
		a.phases = make(map[obs.Phase]time.Duration)
	}
	a.regions += regions
	for _, p := range accPhases {
		a.phases[p] += tr.Phase(p)
	}
	if !hit {
		a.executed += regions
		a.st.Add(*st)
	}
}

// perRegionMS returns a phase's mean time per region in milliseconds.
func (a *coreAcc) perRegionMS(p obs.Phase) float64 {
	if a.regions == 0 {
		return 0
	}
	return ms(a.phases[p]) / float64(a.regions)
}

// perExecutedMS returns a phase's mean time per executed region in
// milliseconds.
func (a *coreAcc) perExecutedMS(p obs.Phase) float64 {
	if a.executed == 0 {
		return 0
	}
	return ms(a.phases[p]) / float64(a.executed)
}

// report sets the core.* metrics and storage.fetch_ms, per executed
// region.
func (a *coreAcc) report(r *run) {
	if a.executed == 0 {
		return
	}
	n := float64(a.executed)
	if a.st.Candidates > 0 {
		r.set("core.useful_frac", float64(a.st.ResultSize)/float64(a.st.Candidates))
	}
	r.set("core.index_nodes_per_query", float64(a.st.IndexNodesVisited)/n)
	r.set("core.cell_tests_per_query", float64(a.st.CellTests)/n)
	r.set("core.seed_ms", a.perExecutedMS(obs.PhaseSeed))
	r.set("core.expand_ms", a.perExecutedMS(obs.PhaseExpand))
	r.set("storage.fetch_ms", a.perExecutedMS(obs.PhasePageFetch))
	r.report("core: %d regions, %d executed (not a cache hit); per executed region %.1f candidates and %.1f results",
		a.regions, a.executed, float64(a.st.Candidates)/n, float64(a.st.ResultSize)/n)
}

// setupLayers times the set-up layers one by one over the point sets the
// workload's engines are built from (one set per engine or shard), the
// same steps vaq.NewEngine takes: Delaunay triangulation, Voronoi diagram
// plus packed cell arena, the default R-tree, and — with a store config —
// the paged record store.
func setupLayers(r *run, parts [][]geom.Point, store *vaq.StoreConfig) error {
	var tDel, tArena, tIndex, tStore time.Duration
	var arenaBytes, sites, pages int
	for _, pts := range parts {
		t0 := time.Now()
		tri, err := delaunay.Build(pts)
		if err != nil {
			return fmt.Errorf("delaunay build: %w", err)
		}
		t1 := time.Now()
		arena := voronoi.BuildCellArena(voronoi.FromTriangulation(tri, vaq.UnitSquare()))
		t2 := time.Now()
		core.NewRTreeIndex(pts, 16)
		t3 := time.Now()
		tDel += t1.Sub(t0)
		tArena += t2.Sub(t1)
		tIndex += t3.Sub(t2)
		arenaBytes += arena.Bytes()
		sites += arena.NumCells()
		if store != nil {
			t4 := time.Now()
			st, err := buildStore(tri, pts, *store)
			if err != nil {
				return err
			}
			tStore += time.Since(t4)
			pages += st.NumPages()
		}
	}
	r.set("delaunay.build_s", tDel.Seconds())
	r.set("voronoi.arena_build_s", tArena.Seconds())
	r.set("index.build_s", tIndex.Seconds())
	r.set("voronoi.arena_bytes_per_site", float64(arenaBytes)/float64(sites))
	if store != nil {
		r.set("storage.build_s", tStore.Seconds())
		r.report("storage: %d pages of %d B over %d parts, pool %d pages per part", pages, store.PageSize, len(parts), store.PoolPages)
	}
	return nil
}

// buildStore writes one record per point (coordinates, Voronoi neighbor
// ids, payload) into a paged store, as the store-backed engine does.
func buildStore(tri *delaunay.Triangulation, pts []geom.Point, cfg vaq.StoreConfig) (*storage.Store, error) {
	b := storage.NewBuilder(storage.Options{PageSize: cfg.PageSize, PoolPages: cfg.PoolPages})
	payload := make([]byte, cfg.PayloadBytes)
	for i, p := range pts {
		nbs32 := tri.Neighbors(i)
		nbs := make([]int64, len(nbs32))
		for j, nb := range nbs32 {
			nbs[j] = int64(nb)
		}
		if err := b.Append(storage.PointRecord{ID: int64(i), Pos: p, Neighbors: nbs, Payload: payload}); err != nil {
			return nil, fmt.Errorf("store build: %w", err)
		}
	}
	st, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("store build: %w", err)
	}
	return st, nil
}

// probeGeom times geom.Prepare per region and PreparedPolygon.ContainsPoint
// replayed over each region's MBR points (the traditional method's
// candidates).
func probeGeom(r *run, o *oracle, polys []geom.Polygon) {
	var tPrep, tContains time.Duration
	var calls, inside int
	var cand []geom.Point
	for _, pg := range polys {
		t0 := time.Now()
		pp := geom.Prepare(pg)
		tPrep += time.Since(t0)
		cand = o.mbrPoints(pp.Bounds(), cand[:0])
		t1 := time.Now()
		for _, p := range cand {
			if pp.ContainsPoint(p) {
				inside++
			}
		}
		tContains += time.Since(t1)
		calls += len(cand)
	}
	r.set("geom.prepare_us", float64(tPrep)/1e3/float64(len(polys)))
	if calls > 0 {
		r.set("geom.contains_ns", float64(tContains)/float64(calls))
	}
	r.report("geom: %d regions, %d containment tests, %d inside", len(polys), calls, inside)
}

// probeWire times the wire codec on one request and response per region:
// wire.EncodeRegion plus JSON marshalling of the request and of a response
// carrying the region's oracle answer, then the reverse.
func probeWire(r *run, regions []vaq.Region, want answers) error {
	var tEnc, tDec time.Duration
	var bytes, results int
	for i, region := range regions {
		t0 := time.Now()
		wr, err := wire.EncodeRegion(region)
		if err != nil {
			return fmt.Errorf("wire encode: %w", err)
		}
		reqBody, err := json.Marshal(wire.QueryRequest{Region: wr})
		if err != nil {
			return fmt.Errorf("wire encode: %w", err)
		}
		respBody, err := json.Marshal(wire.QueryResponse{IDs: want[i], Count: len(want[i])})
		if err != nil {
			return fmt.Errorf("wire encode: %w", err)
		}
		t1 := time.Now()
		var req wire.QueryRequest
		if err := json.Unmarshal(reqBody, &req); err != nil {
			return fmt.Errorf("wire decode: %w", err)
		}
		if _, err := req.Region.Decode(); err != nil {
			return fmt.Errorf("wire decode: %w", err)
		}
		var resp wire.QueryResponse
		if err := json.Unmarshal(respBody, &resp); err != nil {
			return fmt.Errorf("wire decode: %w", err)
		}
		tDec += time.Since(t1)
		tEnc += t1.Sub(t0)
		bytes += len(respBody)
		results += len(resp.IDs)
	}
	n := float64(len(regions))
	r.set("wire.encode_us", float64(tEnc)/1e3/n)
	r.set("wire.decode_us", float64(tDec)/1e3/n)
	if results > 0 {
		r.set("wire.bytes_per_result", float64(bytes)/float64(results))
	}
	return nil
}

// probeMethods runs every region with the paper's method and with the
// traditional baseline on q, alternating which goes first, and records
// the wall-time ratio. Both must return the same answer.
func probeMethods(r *run, q vaq.Querier, regions []vaq.Region) error {
	ctx := context.Background()
	var tV, tT time.Duration
	for i, region := range regions {
		var nV, nT int
		for k := 0; k < 2; k++ {
			method := vaq.VoronoiBFS
			if (i+k)%2 == 1 {
				method = vaq.Traditional
			}
			t0 := time.Now()
			ids, err := q.Query(ctx, region, vaq.UsingMethod(method))
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("method probe: %w", err)
			}
			if method == vaq.VoronoiBFS {
				tV, nV = tV+d, len(ids)
			} else {
				tT, nT = tT+d, len(ids)
			}
		}
		if nV != nT {
			return fmt.Errorf("method probe: region %d: voronoi found %d points, traditional %d", i, nV, nT)
		}
	}
	r.set("core.voronoi_over_traditional", float64(tV)/float64(tT))
	r.report("core: voronoi %.4f ms vs traditional %.4f ms per region over %d probe regions",
		ms(tV)/float64(len(regions)), ms(tT)/float64(len(regions)), len(regions))
	return nil
}

// probeAll runs the layer probes every workload shares: geometry, wire
// codec and the method comparison on fresh regions.
func probeAll(r *run, q vaq.Querier, o *oracle, probe []geom.Polygon) error {
	probeGeom(r, o, probe)
	regions := regionsOf(probe)
	if err := probeWire(r, regions, staticAnswers(o, probe)); err != nil {
		return err
	}
	return probeMethods(r, q, regions)
}
