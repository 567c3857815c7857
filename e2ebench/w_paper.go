package main

import (
	"context"
	"slices"

	vaq "repro"
)

// runPaperIrregular is the paper's own experiment: a static in-memory
// engine (default R-tree, default VoronoiBFS) over 200k uniform points,
// queried by one closed-loop client with distinct ten-vertex star polygons
// at 1% query size. Nearly all time is core BFS, geometry tests and the
// index seed; storage, result cache, batch executor and wire are bypassed.
func runPaperIrregular(r *run) error {
	bounds := vaq.UnitSquare()
	in := paperInputs(r.seed, staticPoints, distinctPool)
	pts, polys := in.pts, in.polys
	o := newOracle(pts, 8)
	want := staticAnswers(o, polys)
	regions := regionsOf(polys)

	eng, err := buildRepeated(r, func() (*vaq.Engine, error) {
		return vaq.NewEngine(pts, bounds)
	}, func(*vaq.Engine) {})
	if err != nil {
		return err
	}

	ctx := context.Background()
	var buf []int64
	query := func(_, seq int, opts ...vaq.QueryOpt) (int, bool) {
		i := seq % len(regions)
		var ids []int64
		var err error
		r.rec.root(ctx, "client.query", func(ctx context.Context) {
			ids, err = eng.Query(ctx, regions[i], append(opts, vaq.Reuse(buf))...)
		})
		buf = ids
		return 1, err == nil && slices.Equal(ids, want[i])
	}
	for i := 0; i < 256; i++ { // warm caches and the scratch pool
		query(0, i)
	}

	measure := r.phaseDuration()
	plain := closedLoop(1, measure, func(c, seq int) (int, bool) { return query(c, seq) })
	r.setLoop("closed loop, 1 client", plain)
	if !r.traced {
		return nil
	}

	var acc coreAcc
	r.rec = newRecorder()
	traced := closedLoop(1, measure, func(c, seq int) (int, bool) {
		var st vaq.Stats
		var tr vaq.QueryTrace
		n, ok := query(c, seq, vaq.WithStatsInto(&st), vaq.WithTraceInto(&tr))
		acc.add(n, &st, &tr, false)
		return n, ok
	})
	r.countLoop(traced)
	r.setOverhead(plain, traced)
	acc.report(r)
	if err := setupLayers(r, [][]vaq.Point{pts}, nil); err != nil {
		return err
	}
	if err := probeAll(r, eng, o, starRegions(rngFor(r.seed, "probe"), probeRegions)); err != nil {
		return err
	}
	return r.finishTrace()
}
