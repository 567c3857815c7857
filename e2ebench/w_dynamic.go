package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	vaq "repro"
	"repro/internal/core"
	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/voronoi"
)

// Dynamic-mixed sizes. At 50 inserts/s the republish takes about a tenth
// of the reader's time and about 0.3% of reads are the first read after a
// write, so p99_ms stays in the steady reads' tail. A rate that puts
// p99_ms among the first reads makes it the republish cost itself, which
// drifts 2x over tens of minutes on a shared machine.
const (
	writerRate   = 50.0 // inserts per second, open loop
	dynamicCache = 256  // result-cache entries; the 32 hot regions fit
)

// firstID is the id of the first inserted point: the dynamic
// triangulation numbers its three fence sites first.
const firstID = delaunay.FirstSiteID

// dynamicEngine is one built dynamic engine and its result cache.
type dynamicEngine struct {
	eng   *vaq.DynamicEngine
	cache *vaq.ResultCache
}

// readStats collects what the reader saw per read.
type readStats struct {
	fresh, steady samples // read latency, first read after a write or not
	publish       samples // Snapshot() time on fresh reads
}

// runDynamicMixed puts writes beside reads: a dynamic engine seeded with
// 50k uniform points and a result cache, one writer goroutine inserting
// new points at a fixed rate (open loop) and one reader goroutine issuing
// closed-loop queries, half drawn uniformly from a 32-region hot pool (so
// no single region's size dominates a seed's cost) and half from distinct
// regions. Every insert forces the copy-on-write
// republish on the next read and invalidates cached answers by epoch.
func runDynamicMixed(r *run) error {
	bounds := vaq.UnitSquare()
	inserts := int(math.Ceil(writerRate*r.seconds)) + 4 // both phases round up
	in := mixedInputs(r.seed, dynamicSeed+inserts, dynamicSeed, dynamicHotPool, distinctPool, requestStream, 0.5, 0)
	pts, polys, stream := in.pts, in.polys, in.stream
	o := newOracle(pts, 8)
	want := staticAnswers(o, polys) // point indexes over every point ever inserted
	regions := regionsOf(polys)

	d, err := buildRepeated(r, func() (dynamicEngine, error) {
		cache := vaq.NewResultCache(dynamicCache)
		eng := vaq.NewDynamicEngine(bounds, vaq.WithResultCache(cache))
		for k, p := range pts[:dynamicSeed] {
			id, inserted, err := eng.Insert(p)
			if err != nil {
				return dynamicEngine{}, fmt.Errorf("seed insert %d: %w", k, err)
			}
			if !inserted || id != int64(firstID+k) {
				return dynamicEngine{}, fmt.Errorf("seed insert %d: got id %d (inserted %v), want new id %d", k, id, inserted, firstID+k)
			}
		}
		eng.Snapshot() // publish the seeded epoch
		return dynamicEngine{eng: eng, cache: cache}, nil
	}, func(dynamicEngine) {})
	if err != nil {
		return err
	}
	eng := d.eng

	// check compares a result at a snapshot holding the first m points
	// with the oracle: the region's indexes below m, shifted to ids.
	check := func(ids []int64, region, m int) bool {
		all := want[region]
		n := sort.Search(len(all), func(j int) bool { return all[j] >= int64(m) })
		if len(ids) != n {
			return false
		}
		for j, id := range ids {
			if id != all[j]+firstID {
				return false
			}
		}
		return true
	}

	ctx := context.Background()
	next := dynamicSeed // next point to insert; only the writer goroutine touches it
	write := func(int, int) (int, bool) {
		k := next
		if k >= len(pts) {
			return 0, false
		}
		next++
		var id int64
		var inserted bool
		var err error
		r.rec.root(ctx, "client.insert", func(context.Context) { id, inserted, err = eng.Insert(pts[k]) })
		return 0, err == nil && inserted && id == int64(firstID+k)
	}
	var buf []int64
	var lastEpoch uint64
	read := func(rs *readStats, acc *coreAcc, seq int) (int, bool) {
		i := int(stream[seq%len(stream)])
		var st vaq.Stats
		var tr vaq.QueryTrace
		opts := []vaq.QueryOpt{vaq.Reuse(buf)}
		if acc != nil {
			opts = append(opts, vaq.WithStatsInto(&st), vaq.WithTraceInto(&tr))
		}
		var ids []int64
		var snap *vaq.Snapshot
		var err error
		var tSnap time.Duration
		t0 := time.Now()
		r.rec.root(ctx, "client.read", func(ctx context.Context) {
			r.rec.child(ctx, "dynamic.snapshot", func(context.Context) string {
				snap = eng.Snapshot()
				return ""
			})
			tSnap = time.Since(t0)
			r.rec.child(ctx, "client.query", func(ctx context.Context) string {
				ids, err = snap.Query(ctx, regions[i], opts...)
				return ""
			})
		})
		lat := time.Since(t0)
		buf = ids
		if acc != nil {
			acc.add(1, &st, &tr, tr.CacheHit())
		}
		if ep := snap.Epoch(); ep != lastEpoch {
			lastEpoch = ep
			rs.fresh = append(rs.fresh, lat)
			rs.publish = append(rs.publish, tSnap)
		} else {
			rs.steady = append(rs.steady, lat)
		}
		return 1, err == nil && check(ids, i, snap.Len())
	}
	// mixed runs the writer's open loop beside the reader's closed loop.
	mixed := func(dur time.Duration, rs *readStats, acc *coreAcc) (writes, reads loopResult) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			writes = openLoop(1, writerRate, dur, write)
		}()
		reads = closedLoop(1, dur, func(_, seq int) (int, bool) { return read(rs, acc, seq) })
		wg.Wait()
		return writes, reads
	}
	var warmStats readStats
	closedLoop(1, 300*time.Millisecond, func(_, seq int) (int, bool) { return read(&warmStats, nil, seq) })

	var rs readStats
	writes, reads := mixed(r.phaseDuration(), &rs, nil)
	r.countLoop(writes)
	r.setLoop("reader closed loop, 1 client, beside 1 writer", reads)
	r.set("dynamic.insert_p50_ms", writes.lat().quantileMS(0.50))
	r.set("dynamic.insert_p99_ms", writes.lat().quantileMS(0.99))
	r.set("dynamic.fresh_p50_ms", rs.fresh.quantileMS(0.50))
	r.set("dynamic.fresh_extra_ms", rs.fresh.quantileMS(0.50)-rs.steady.quantileMS(0.50))
	r.set("dynamic.publish_ms", rs.publish.quantileMS(0.50))
	r.set("loadgen.late_p99_ms", writes.late.quantileMS(0.99))
	r.report("insert_p50_ms = %.4f ms, insert_p99_ms = %.4f ms (writer open loop at %.0f 1/s, n=%d)",
		r.values["dynamic.insert_p50_ms"], r.values["dynamic.insert_p99_ms"], writerRate, len(writes.ops))
	r.report("fresh_p50_ms = %.4f ms (first read after a write, n=%d; steady reads p50 %.4f ms, n=%d)",
		r.values["dynamic.fresh_p50_ms"], len(rs.fresh), rs.steady.quantileMS(0.50), len(rs.steady))
	r.report("dynamic.publish_ms = %.4f ms (Snapshot() on fresh reads, n=%d)", r.values["dynamic.publish_ms"], len(rs.publish))
	r.report("gen_late_p99_ms = %.4f ms (writer open loop, n=%d)", r.values["loadgen.late_p99_ms"], len(writes.late))
	if !r.traced {
		return nil
	}

	before := d.cache.Stats()
	var acc coreAcc
	var trs readStats
	r.rec = newRecorder()
	twrites, treads := mixed(r.phaseDuration(), &trs, &acc)
	after := d.cache.Stats()
	r.countLoop(twrites)
	r.countLoop(treads)
	r.setOverhead(reads, treads)
	acc.report(r)
	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
	if hits+misses > 0 {
		r.set("rcache.hit_rate", hits/(hits+misses))
	}
	r.set("rcache.evictions_per_query", float64(after.Evictions-before.Evictions)/float64(treads.regions()))
	r.set("rcache.lookup_us", acc.perRegionMS(obs.PhaseCacheLookup)*1e3)

	if err := dynamicSetupLayers(r, pts[:dynamicSeed]); err != nil {
		return err
	}
	if err := probeAll(r, eng.Snapshot(), o, starRegions(rngFor(r.seed, "probe"), probeRegions)); err != nil {
		return err
	}
	return r.finishTrace()
}

// dynamicSetupLayers times the dynamic engine's set-up layers over the
// seed points: incremental Delaunay insertion, the cell arena a snapshot
// builds from the triangulation, and the R*-split R-tree grown by
// insertion.
func dynamicSetupLayers(r *run, pts []geom.Point) error {
	t0 := time.Now()
	dt := delaunay.NewDynamic(vaq.UnitSquare())
	for _, p := range pts {
		if _, _, err := dt.InsertSite(p); err != nil {
			return fmt.Errorf("dynamic delaunay insert: %w", err)
		}
	}
	t1 := time.Now()
	arena := voronoi.CellArenaFromSites(dt.NumSites(), vaq.UnitSquare(), dt.Point, func(i int, fn func(geom.Point) bool) {
		dt.Neighbors(i, func(nb int32) bool { return fn(dt.Point(int(nb))) })
	})
	t2 := time.Now()
	core.NewRStarIndex(pts, 16)
	t3 := time.Now()
	r.set("delaunay.build_s", t1.Sub(t0).Seconds())
	r.set("voronoi.arena_build_s", t2.Sub(t1).Seconds())
	r.set("index.build_s", t3.Sub(t2).Seconds())
	r.set("voronoi.arena_bytes_per_site", float64(arena.Bytes())/float64(arena.NumCells()))
	return nil
}
