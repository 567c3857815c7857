package main

import (
	"context"
	"slices"
	"testing"

	vaq "repro"
)

// generators are the workloads' input generators at test size.
var generators = map[string]func(seed int64) inputs{
	"paper-irregular": func(seed int64) inputs { return paperInputs(seed, 20_000, 64) },
	"batch-store":     func(seed int64) inputs { return batchInputs(seed, 20_000, 64) },
	"served-hot":      func(seed int64) inputs { return mixedInputs(seed, 20_000, 20_000, 16, 64, 4096, hotShare, zipfSkew) },
	"dynamic-mixed":   func(seed int64) inputs { return mixedInputs(seed, 20_000, 15_000, 8, 64, 4096, 0.5, 0) },
}

func TestSeedDeterminesInputs(t *testing.T) {
	for name, gen := range generators {
		a, b, c := gen(7).sum(), gen(7).sum(), gen(8).sum()
		if a != b {
			t.Errorf("%s: seed 7 gave two different inputs (%x, %x)", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs (%x)", name, a)
		}
	}
}

// resultSum answers every region of the inputs with a freshly built
// engine, checks each answer against the oracle and returns the checksum
// of all answers.
func resultSum(t *testing.T, in inputs) uint64 {
	t.Helper()
	eng, err := vaq.NewEngine(in.pts, vaq.UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	want := staticAnswers(newOracle(in.pts, 8), in.polys)
	c := newChecksum()
	for i, region := range regionsOf(in.polys) {
		ids, err := eng.Query(context.Background(), region)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ids, want[i]) {
			t.Fatalf("region %d: engine returned %d ids, oracle %d", i, len(ids), len(want[i]))
		}
		c.ids(ids)
	}
	return c.sum()
}

func TestSeedDeterminesResults(t *testing.T) {
	for _, name := range []string{"paper-irregular", "batch-store"} {
		gen := generators[name]
		a, b, c := resultSum(t, gen(7)), resultSum(t, gen(7)), resultSum(t, gen(8))
		if a != b {
			t.Errorf("%s: seed 7 gave two different result checksums (%x, %x)", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same result checksum (%x)", name, a)
		}
	}
}

func TestOracleMatchesPrefix(t *testing.T) {
	in := paperInputs(3, 5000, 16)
	o := newOracle(in.pts, 4)
	for _, pg := range in.polys {
		full := o.query(pg, len(in.pts))
		half := o.query(pg, len(in.pts)/2)
		var want []int32
		for _, i := range full {
			if int(i) < len(in.pts)/2 {
				want = append(want, i)
			}
		}
		if !slices.Equal(half, want) {
			t.Fatalf("prefix answer %v, want %v", half, want)
		}
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 60}}
	if got := covered(parent, kids); got != 50 {
		t.Fatalf("covered = %d, want 50", got)
	}
}

func TestRegionsInsideUniverse(t *testing.T) {
	for name, gen := range generators {
		for seed := int64(1); seed <= 10; seed++ {
			for i, pg := range gen(seed).polys {
				if !vaq.UnitSquare().ContainsRect(pg.Bounds()) {
					t.Fatalf("%s seed %d: region %d MBR %v leaves the unit square", name, seed, i, pg.Bounds())
				}
			}
		}
	}
}
