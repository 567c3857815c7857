package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"time"

	vaq "repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Served-hot sizes. Each chunk server's result cache holds 256 entries:
// the 64-region hot pool fits with room to spare, while the 4096 distinct
// regions come round again only after thousands of other requests, long
// after LRU eviction, so they always miss.
const (
	servedBackends = 2
	servedCache    = 256
	hotShare       = 0.8     // share of requests drawn from the hot pool
	zipfSkew       = 1.1     // skew of the hot-pool draw
	requestStream  = 1 << 19 // pre-drawn request sequence, reused cyclically
)

// cluster is the serving state of served-hot: two chunk servers on
// loopback listeners and the remote engine that fans out to them.
type cluster struct {
	traced  []*tracedEngine // server engine wrappers; nil untraced
	caches  []*vaq.ResultCache
	servers []*http.Server
	done    []chan struct{} // closed when a server's Serve returns
	client  *http.Client
	remote  *vaq.RemoteEngine
}

// startCluster builds one engine per contiguous half of pts (what
// `areaserve -shard i/2` serves), each with its own result cache, serves
// each from its own HTTP server and dials a remote engine over them. With
// a recorder every boundary is traced.
func startCluster(pts []vaq.Point, rc *recorder) (*cluster, error) {
	c := &cluster{}
	urls := make([]string, servedBackends)
	for i := range servedBackends {
		start, end := len(pts)*i/servedBackends, len(pts)*(i+1)/servedBackends
		cache := vaq.NewResultCache(servedCache)
		eng, err := vaq.NewEngine(pts[start:end], vaq.UnitSquare(), vaq.WithResultCache(cache))
		if err != nil {
			c.close()
			return nil, fmt.Errorf("building backend %d: %w", i, err)
		}
		var served serve.Engine = eng
		if rc != nil {
			te := &tracedEngine{Engine: eng, rc: rc}
			c.traced = append(c.traced, te)
			served = te
		}
		h := serve.NewHandler(served, serve.Config{IDOffset: int64(start), Flavor: "static"})
		if rc != nil {
			h = traceHandler(rc, h)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		srv := &http.Server{Handler: h}
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Serve(ln) // returns http.ErrServerClosed once close runs
		}()
		c.caches = append(c.caches, cache)
		c.servers = append(c.servers, srv)
		c.done = append(c.done, done)
		urls[i] = "http://" + ln.Addr().String()
	}
	conns := runtime.NumCPU()
	var tr http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	if rc != nil {
		tr = &tracingTransport{rc: rc, next: tr}
	}
	c.client = &http.Client{Transport: tr}
	remote, err := vaq.DialRemote(context.Background(), urls, vaq.WithRemoteClient(c.client))
	if err != nil {
		c.close()
		return nil, fmt.Errorf("dialing backends: %w", err)
	}
	c.remote = remote
	return c, nil
}

// close stops every server and waits for its Serve goroutine to return.
func (c *cluster) close() {
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
	for i, srv := range c.servers {
		srv.Close()
		<-c.done[i]
	}
}

// engineTimes sums the traced server engines' counters: cache-lookup
// time over all queries, seed, expansion and record-fetch time over
// executed queries.
type engineTimes struct {
	lookupNs, queries                   int64
	seedNs, expandNs, fetchNs, executed int64
}

func (c *cluster) engineTimes() engineTimes {
	var t engineTimes
	for _, te := range c.traced {
		t.lookupNs += te.lookupNs.Load()
		t.queries += te.queries.Load()
		t.seedNs += te.seedNs.Load()
		t.expandNs += te.expandNs.Load()
		t.fetchNs += te.fetchNs.Load()
		t.executed += te.executed.Load()
	}
	return t
}

func (c *cluster) cacheStats() vaq.CacheStats {
	var sum vaq.CacheStats
	for _, rc := range c.caches {
		s := rc.Stats()
		sum.Hits += s.Hits
		sum.Misses += s.Misses
		sum.Evictions += s.Evictions
	}
	return sum
}

// runServedHot drives the production path: a remote engine over two
// in-process chunk servers reached over loopback HTTP, each with a result
// cache. About 80% of requests draw a zipf(1.1) region from a 64-region
// hot pool that fits the caches; the rest walk 4096 distinct regions that
// always miss. A closed loop on one client per CPU gives throughput and
// latencies.
func runServedHot(r *run) error {
	in := mixedInputs(r.seed, staticPoints, staticPoints, hotPoolSize, distinctPool, requestStream, hotShare, zipfSkew)
	pts, polys, stream := in.pts, in.polys, in.stream
	o := newOracle(pts, 8)
	want := staticAnswers(o, polys)
	regions := regionsOf(polys)

	c, err := buildRepeated(r, func() (*cluster, error) { return startCluster(pts, nil) }, (*cluster).close)
	if err != nil {
		return err
	}
	defer func() { c.close() }()

	ctx := context.Background()
	clients := runtime.NumCPU()
	bufs := make([][]int64, clients)
	// query runs request seq and reports, when traced, whether a server's
	// result cache answered it.
	query := func(c *cluster, client, seq int, opts ...vaq.QueryOpt) (n int, ok, hit bool) {
		i := stream[seq%len(stream)]
		var ids []int64
		var err error
		r.rec.root(ctx, "client.query", func(ctx context.Context) {
			ids, err = c.remote.Query(ctx, regions[i], append(opts, vaq.Reuse(bufs[client]))...)
			hit = r.rec.cacheHit(ctx)
		})
		bufs[client] = ids
		return 1, err == nil && slices.Equal(ids, want[i]), hit
	}
	op := func(c *cluster) opFunc {
		return func(client, seq int) (int, bool) {
			n, ok, _ := query(c, client, seq)
			return n, ok
		}
	}
	warm := func(c *cluster) { // fill the caches with the hot pool, open connections
		for i := range hotPoolSize {
			query(c, 0, i)
		}
		closedLoop(clients, 500*time.Millisecond, op(c))
	}
	warm(c)

	// One closed loop on nproc clients gives every end-to-end metric. The
	// latencies of a lightly loaded open loop moved with other work on the
	// machine far more than the throughput did, and spread past their
	// bound between runs (README.md).
	closed := closedLoop(clients, r.phaseDuration(), op(c))
	r.setLoop(fmt.Sprintf("closed loop, %d clients", clients), closed)
	if !r.traced {
		return nil
	}

	// The traced phase runs the closed loop again on a cluster whose
	// client transport, server handlers and server engines record spans.
	c.close()
	c = &cluster{} // already closed; the deferred close finds nothing to stop
	runtime.GC()
	r.rec = newRecorder()
	tc, err := startCluster(pts, r.rec)
	if err != nil {
		return err
	}
	c = tc
	warm(c)
	r.rec.reset()
	timesBefore := c.engineTimes()
	before := c.cacheStats()
	var acc coreAcc
	traced := closedLoop(clients, r.phaseDuration(), func(client, seq int) (int, bool) {
		var st vaq.Stats
		var tr vaq.QueryTrace
		n, ok, hit := query(c, client, seq, vaq.WithStatsInto(&st), vaq.WithTraceInto(&tr))
		acc.add(n, &st, &tr, hit)
		return n, ok
	})
	after := c.cacheStats()
	timesAfter := c.engineTimes()
	r.countLoop(traced)
	r.setOverhead(closed, traced)
	// The client's counters are the servers' Stats summed over backends;
	// only requests no backend answered from its cache count. The client
	// sees no server phases, so seed, expansion and record fetch come
	// from the server engines, per backend query they executed.
	acc.report(r)
	if n := timesAfter.executed - timesBefore.executed; n > 0 {
		perQuery := func(after, before int64) float64 { return float64(after-before) / 1e6 / float64(n) }
		r.set("core.seed_ms", perQuery(timesAfter.seedNs, timesBefore.seedNs))
		r.set("core.expand_ms", perQuery(timesAfter.expandNs, timesBefore.expandNs))
		r.set("storage.fetch_ms", perQuery(timesAfter.fetchNs, timesBefore.fetchNs))
	}
	r.set("remote.merge_ms", acc.perRegionMS(obs.PhaseMerge))

	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
	if hits+misses > 0 {
		r.set("rcache.hit_rate", hits/(hits+misses))
	}
	r.set("rcache.evictions_per_query", float64(after.Evictions-before.Evictions)/float64(traced.regions()))
	if n := timesAfter.queries - timesBefore.queries; n > 0 {
		r.set("rcache.lookup_us", float64(timesAfter.lookupNs-timesBefore.lookupNs)/1e3/float64(n))
	}
	ls := r.rec.layers()
	if l := ls["serve.handler"]; l != nil {
		r.set("serve.handler_ms", l.meanMS())
		r.set("serve.self_ms", l.selfMeanMS())
	}
	if l := ls["remote.roundtrip"]; l != nil {
		r.set("remote.roundtrip_ms", l.meanMS())
		r.set("remote.net_ms", l.selfMeanMS())
	}
	r.set("remote.retries", float64(r.rec.retries("remote.roundtrip")))

	halves := make([][]vaq.Point, servedBackends)
	for i := range halves {
		halves[i] = pts[len(pts)*i/servedBackends : len(pts)*(i+1)/servedBackends]
	}
	if err := setupLayers(r, halves, nil); err != nil {
		return err
	}
	// The method probe runs through the remote engine, the path this
	// workload serves. A chunk server's engine holds half the points, and
	// on such partial data the paper's published expansion rule can miss
	// a thin lobe of a region (see internal/shard); the remote engine
	// upgrades regions that span both backends to the complete rule.
	if err := probeAll(r, c.remote, o, starRegions(rngFor(r.seed, "probe"), probeRegions)); err != nil {
		return err
	}
	return r.finishTrace()
}
