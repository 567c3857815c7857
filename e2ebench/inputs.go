package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"

	vaq "repro"
	"repro/internal/geom"
	"repro/internal/workload"
)

// Input sizes. They are fixed so every seed measures the same amount of
// work; README.md explains each choice.
const (
	staticPoints   = 200_000 // paper-irregular, batch-store, served-hot
	dynamicSeed    = 50_000  // dynamic-mixed points before the writer starts
	querySize      = 0.01    // MBR area / universe area, the paper's 1%
	queryVertices  = 10      // the paper's ten-vertex polygons
	spikyRadius    = 0.05    // MinRadiusRatio of the spiky half of the regions
	distinctPool   = 4096    // distinct regions cycled by the closed loops
	hotPoolSize    = 64      // zipf-drawn hot regions (served-hot)
	dynamicHotPool = 32      // hot regions of the dynamic reader
	probeRegions   = 256     // fresh regions of the traced-run layer probes
	clusterCount   = 64      // Gaussian blobs of the clustered dataset
	clusterSigma   = 0.02    // blob standard deviation, in universe widths
)

// rngFor returns the generator of one named input stream of a seed, so
// adding a stream never shifts the values another stream draws.
func rngFor(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// starRegions returns n distinct ten-vertex star polygons at 1% query
// size, alternating the default spikiness with MinRadiusRatio 0.05 (thin
// spikes, the paper's irregular case) so any run of consecutive regions
// is half of each.
func starRegions(rng *rand.Rand, n int) []geom.Polygon {
	out := make([]geom.Polygon, n)
	for i := range out {
		cfg := workload.PolygonConfig{Vertices: queryVertices, QuerySize: querySize}
		if i%2 == 1 {
			cfg.MinRadiusRatio = spikyRadius
		}
		out[i] = workload.RandomPolygon(rng, cfg, vaq.UnitSquare())
	}
	return out
}

// centerHalfOn moves half of the polygons — two of every four, so any run
// of consecutive regions mixes both kinds and both spikiness levels — so
// their MBR center lands on a randomly chosen data point (clamped to keep
// the MBR inside the universe): those queries follow the data density the
// way user traffic does, the rest stay uniformly placed.
func centerHalfOn(rng *rand.Rand, polys []geom.Polygon, pts []geom.Point) {
	for i, pg := range polys {
		if i%4 >= 2 {
			continue
		}
		c := pts[rng.Intn(len(pts))]
		mbr := pg.Bounds()
		w, h := mbr.Width(), mbr.Height()
		cx := math.Min(math.Max(c.X, w/2), 1-w/2)
		cy := math.Min(math.Max(c.Y, h/2), 1-h/2)
		dx, dy := cx-(mbr.MinX+w/2), cy-(mbr.MinY+h/2)
		ring := make(geom.Ring, len(pg.Outer))
		for j, p := range pg.Outer {
			ring[j] = geom.Pt(p.X+dx, p.Y+dy)
		}
		polys[i] = insideUnitSquare(geom.Polygon{Outer: ring})
	}
}

// insideUnitSquare shifts pg back inside the unit square when rounding in
// a translating clamp (HotRegionPool's or centerHalfOn's) leaves its MBR a
// few ulps outside — MinX = -1e-16 occurs — which the dynamic engine
// rightly rejects as outside its universe.
func insideUnitSquare(pg geom.Polygon) geom.Polygon {
	mbr := pg.Bounds()
	dx := max(0, -mbr.MinX) - max(0, mbr.MaxX-1)
	dy := max(0, -mbr.MinY) - max(0, mbr.MaxY-1)
	if dx == 0 && dy == 0 {
		return pg
	}
	ring := make(geom.Ring, len(pg.Outer))
	for j, p := range pg.Outer {
		ring[j] = geom.Pt(p.X+dx, p.Y+dy)
	}
	return geom.Polygon{Outer: ring}
}

// regionsOf prepares polygons as engine regions.
func regionsOf(polys []geom.Polygon) []vaq.Region {
	out := make([]vaq.Region, len(polys))
	for i, pg := range polys {
		out[i] = vaq.PolygonRegion(pg)
	}
	return out
}

// checksum folds points, polygon vertices and ids into one FNV-1a hash,
// so a test can tell whether two seeds produced the same inputs.
type checksum struct {
	h   hash.Hash64
	buf []byte
}

func newChecksum() *checksum { return &checksum{h: fnv.New64a()} }

func (c *checksum) u64(v uint64) {
	c.buf = binary.LittleEndian.AppendUint64(c.buf[:0], v)
	c.h.Write(c.buf)
}

func (c *checksum) sum() uint64 { return c.h.Sum64() }

func (c *checksum) points(pts []geom.Point) {
	for _, p := range pts {
		c.u64(math.Float64bits(p.X))
		c.u64(math.Float64bits(p.Y))
	}
}

func (c *checksum) polygons(polys []geom.Polygon) {
	for _, pg := range polys {
		c.points(pg.Outer)
	}
}

func (c *checksum) ids(ids []int64) {
	c.u64(uint64(len(ids)))
	for _, id := range ids {
		c.u64(uint64(id))
	}
}

// inputs is what a workload feeds the program: points in insertion (id)
// order, the region pool, and for the mixed-traffic workloads the request
// stream of indexes into the pool.
type inputs struct {
	pts    []geom.Point
	polys  []geom.Polygon
	stream []int32
}

// paperInputs: n uniform points, pool distinct star regions. The points
// are numbered in Hilbert order, the heap-file order a spatial store
// uses; the point set is the paper's, only its ids follow locality. This
// keeps a query's memory footprint compact, and with it the figures steady
// on machines whose memory bandwidth other work shares.
func paperInputs(seed int64, n, pool int) inputs {
	pts := vaq.UniformPoints(rngFor(seed, "points"), n, vaq.UnitSquare())
	vaq.HilbertSort(pts, vaq.UnitSquare())
	return inputs{pts: pts, polys: starRegions(rngFor(seed, "regions"), pool)}
}

// batchInputs: n clustered points in Hilbert order, pool star regions,
// half of them centered on data.
func batchInputs(seed int64, n, pool int) inputs {
	pts := vaq.ClusteredPoints(rngFor(seed, "points"), n, clusterCount, clusterSigma, vaq.UnitSquare())
	vaq.HilbertSort(pts, vaq.UnitSquare())
	polys := starRegions(rngFor(seed, "regions"), pool)
	centerHalfOn(rngFor(seed, "centers"), polys, pts)
	return inputs{pts: pts, polys: polys}
}

// mixedInputs: n uniform points, the first sorted of them in Hilbert order
// (the rest keep arrival order: a dynamic workload's insert stream), a hot
// pool of hot regions followed by pool distinct star regions, and a
// request stream drawing a hot region with probability hotFrac and
// otherwise the next distinct region in turn. Hot regions are drawn
// zipf-ranked with the given skew, or uniformly when skew is 0.
func mixedInputs(seed int64, n, sorted, hot, pool, streamLen int, hotFrac, skew float64) inputs {
	in := inputs{
		pts:   vaq.UniformPoints(rngFor(seed, "points"), n, vaq.UnitSquare()),
		polys: starRegions(rngFor(seed, "regions"), pool),
	}
	vaq.HilbertSort(in.pts[:sorted], vaq.UnitSquare())
	hotPool := workload.HotRegionPool(rngFor(seed, "hot"), workload.HotRegionConfig{Regions: hot}, vaq.UnitSquare())
	for i, pg := range hotPool {
		hotPool[i] = insideUnitSquare(pg)
	}
	in.polys = append(hotPool, in.polys...)
	mix := rngFor(seed, "mix")
	pick := func() int { return mix.Intn(hot) }
	if skew > 0 {
		pick = workload.ZipfPicker(mix, skew, hot)
	}
	in.stream = make([]int32, streamLen)
	next := 0
	for i := range in.stream {
		if mix.Float64() < hotFrac {
			in.stream[i] = int32(pick())
		} else {
			in.stream[i] = int32(hot + next%pool)
			next++
		}
	}
	return in
}

// sum returns the inputs' checksum.
func (in inputs) sum() uint64 {
	c := newChecksum()
	c.points(in.pts)
	c.polygons(in.polys)
	for _, v := range in.stream {
		c.u64(uint64(v))
	}
	return c.sum()
}
