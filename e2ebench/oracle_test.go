package main

import (
	"testing"

	"repro/internal/geom"
)

func TestInsidePolygonExact(t *testing.T) {
	// A batch-store region (seed 39) and a data point 1.5e-17 outside its
	// edge from vertex 2 to vertex 3: the rounded crossing abscissa lands
	// on the point's side, so a floating-point crossing test calls it
	// inside.
	star := geom.Polygon{Outer: geom.Ring{
		{X: 0.5542848638004247, Y: 0.140587130728833},
		{X: 0.552320707892657, Y: 0.1707031706797435},
		{X: 0.5623162803683808, Y: 0.18271451041542497},
		{X: 0.4384013618859624, Y: 0.10201397715865779},
		{X: 0.5076372913951195, Y: 0.11073715587238198},
		{X: 0.5166556182736763, Y: 0.11153850531520748},
		{X: 0.5561210142567439, Y: 0.10362479134881453},
		{X: 0.5132349435756083, Y: 0.13507716728472652},
		{X: 0.5173372518599608, Y: 0.1339067641896493},
		{X: 0.5301659593790928, Y: 0.1289286994129475},
	}}
	square := geom.Polygon{
		Outer: geom.Ring{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}},
		Holes: []geom.Ring{{{X: 0.25, Y: 0.25}, {X: 0.75, Y: 0.25}, {X: 0.75, Y: 0.75}, {X: 0.25, Y: 0.75}}},
	}
	cases := []struct {
		name string
		pg   geom.Polygon
		p    geom.Point
		want bool
	}{
		{"ulps outside an edge", star, geom.Pt(0.5003588211271716, 0.14236424378704138), false},
		{"well inside", star, geom.Pt(0.53, 0.14), true},
		{"outer edge", square, geom.Pt(0.5, 0), true},
		{"outer vertex", square, geom.Pt(1, 1), true},
		{"between rings", square, geom.Pt(0.1, 0.5), true},
		{"in the hole", square, geom.Pt(0.5, 0.5), false},
		{"hole edge", square, geom.Pt(0.75, 0.5), true},
		{"outside", square, geom.Pt(1.5, 0.5), false},
	}
	for _, c := range cases {
		if got := insidePolygon(c.pg, c.p); got != c.want {
			t.Errorf("%s: insidePolygon(%v) = %v, want %v", c.name, c.p, got, c.want)
		}
		if got := c.pg.ContainsPoint(c.p); got != c.want {
			t.Errorf("%s: geometry kernel says %v, want %v", c.name, got, c.want)
		}
	}
}
