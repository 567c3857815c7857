package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	vaq "repro"
)

// Batch-store sizes. A record is 28 B of fixed fields, 8 B per Voronoi
// neighbor (six on average) and the payload; with its 6 B slot entry about
// 28 records fill a 4 KiB page, so a 50k-point shard spans about 1800
// pages and a 450-page pool caches a quarter of them.
const (
	batchShards    = 4
	batchSize      = 64
	batchPageSize  = 4096
	batchPayload   = 64
	recordsPerPage = (batchPageSize - 2) / (28 + 8*6 + batchPayload + 6)
	shardPages     = (staticPoints/batchShards + recordsPerPage - 1) / recordsPerPage
	batchPoolPages = shardPages / 4
	warmBatches    = 8
)

// runBatchStore drives the batch path: a 4-shard engine over 200k
// clustered points (half the regions centered on data points, half placed
// uniformly), each shard backed by a paged store whose buffer pool
// holds about a quarter of the shard's pages, answering QueryAll batches
// of 64 distinct regions from one closed-loop client on a worker pool of
// one goroutine per CPU. It exercises the exec pool, shard scatter and
// merge, the strict expansion and buffer-pool misses; clustered data
// makes the shards uneven.
func runBatchStore(r *run) error {
	bounds := vaq.UnitSquare()
	in := batchInputs(r.seed, staticPoints, distinctPool)
	pts, polys := in.pts, in.polys
	o := newOracle(pts, 8)
	want := staticAnswers(o, polys)
	regions := regionsOf(polys)
	workers := runtime.NumCPU()
	store := vaq.StoreConfig{PageSize: batchPageSize, PoolPages: batchPoolPages, PayloadBytes: batchPayload}
	build := func(opts ...vaq.Option) (*vaq.ShardedEngine, error) {
		return vaq.NewShardedEngine(pts, bounds, append(opts,
			vaq.WithShards(batchShards), vaq.WithStore(store), vaq.WithParallelism(workers))...)
	}
	r.report("batch-store: %d points in %d shards, ~%d pages of %d B per shard, pool %d pages per shard, batches of %d on %d workers",
		len(pts), batchShards, shardPages, batchPageSize, batchPoolPages, batchSize, workers)

	eng, err := buildRepeated(r, func() (*vaq.ShardedEngine, error) { return build() }, func(*vaq.ShardedEngine) {})
	if err != nil {
		return err
	}

	ctx := context.Background()
	batches := len(regions) / batchSize
	batch := func(eng *vaq.ShardedEngine, seq int, opts ...vaq.QueryOpt) (int, bool) {
		b := seq % batches
		var out [][]int64
		var err error
		r.rec.root(ctx, "client.queryall", func(ctx context.Context) {
			out, err = eng.QueryAll(ctx, regions[b*batchSize:(b+1)*batchSize], opts...)
		})
		ok := err == nil && len(out) == batchSize
		for i := 0; ok && i < batchSize; i++ {
			ok = slices.Equal(out[i], want[b*batchSize+i])
		}
		return batchSize, ok
	}
	for i := 0; i < warmBatches; i++ { // fill the buffer pools
		batch(eng, i)
	}

	measure := r.phaseDuration()
	plain := closedLoop(1, measure, func(_, seq int) (int, bool) { return batch(eng, seq) })
	r.setLoop(fmt.Sprintf("closed loop, 1 client, QueryAll batches of %d", batchSize), plain)
	if !r.traced {
		return nil
	}

	// The traced phase runs on an engine that also feeds a metrics
	// registry, for the worker-pool, shard and buffer-pool counters.
	eng = nil
	runtime.GC()
	reg := vaq.NewMetricsRegistry()
	eng, err = build(vaq.WithMetrics(reg))
	if err != nil {
		return err
	}
	for i := 0; i < warmBatches; i++ {
		batch(eng, i)
	}
	// Registry figures are differences across the traced loop, so the
	// warm-up batches do not count. A quantile cannot be differenced, so
	// the per-shard latency histogram starts empty instead.
	const fl = `{flavor="sharded"}`
	reg.Histogram("vaq_shard_latency_ns" + fl).Reset()
	before := reg.Snapshot()
	var acc coreAcc
	r.rec = newRecorder()
	traced := closedLoop(1, measure, func(_, seq int) (int, bool) {
		var st vaq.Stats
		var tr vaq.QueryTrace
		n, ok := batch(eng, seq, vaq.WithStatsInto(&st), vaq.WithTraceInto(&tr))
		acc.add(n, &st, &tr, false)
		return n, ok
	})
	after := reg.Snapshot()
	r.countLoop(traced)
	r.setOverhead(plain, traced)
	acc.report(r)

	gauge := func(name string) float64 { return after.Gauges[name+fl] - before.Gauges[name+fl] }
	counter := func(name string) float64 { return float64(after.Counters[name+fl] - before.Counters[name+fl]) }
	histMean := func(name string) float64 {
		a, b := after.Histograms[name+fl], before.Histograms[name+fl]
		if a.Count == b.Count {
			return 0
		}
		return (a.Sum - b.Sum) / float64(a.Count-b.Count)
	}
	regionsDone := float64(traced.regions())
	reads := gauge("vaq_bufpool_page_reads_total")
	hits := gauge("vaq_bufpool_cache_hits_total")
	r.set("storage.page_reads_per_query", reads/regionsDone)
	if reads+hits > 0 {
		r.set("storage.hit_rate", hits/(reads+hits))
	}
	r.set("exec.batch_ms", traced.lat().meanMS())
	r.set("exec.chunk_wait_ms", histMean("vaq_exec_chunk_wait_ns")/1e6)
	var wall time.Duration
	for _, d := range traced.lat() {
		wall += d
	}
	busy := after.Histograms["vaq_exec_worker_busy_ns"+fl].Sum - before.Histograms["vaq_exec_worker_busy_ns"+fl].Sum
	r.set("exec.worker_busy_frac", busy/(float64(workers)*float64(wall)))
	r.set("shard.fanout_per_query", histMean("vaq_shard_fanout"))
	pruned := counter("vaq_shard_pruned_total")
	scattered := counter("vaq_shard_queries_total")
	if pruned+scattered > 0 {
		r.set("shard.pruned_frac", pruned/(pruned+scattered))
	}
	lat := after.Histograms["vaq_shard_latency_ns"+fl]
	r.set("shard.straggler_ms", (lat.P99-lat.P50)/1e6)
	r.report("shard: per-shard task p50 %.4f ms, p99 %.4f ms over %d tasks", lat.P50/1e6, lat.P99/1e6, lat.Count)

	parts := make([][]vaq.Point, batchShards)
	for i := range parts {
		parts[i] = pts[len(pts)*i/batchShards : len(pts)*(i+1)/batchShards]
	}
	if err := setupLayers(r, parts, &store); err != nil {
		return err
	}
	probe := starRegions(rngFor(r.seed, "probe"), probeRegions)
	centerHalfOn(rngFor(r.seed, "probe-centers"), probe, pts)
	if err := probeAll(r, eng, o, probe); err != nil {
		return err
	}
	return r.finishTrace()
}
