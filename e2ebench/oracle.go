package main

import (
	"math"
	"math/big"
	"sort"

	"repro/internal/geom"
)

// oracle answers area queries by brute force, independently of the
// engines: a uniform grid over the unit square narrows each query to the
// points in the cells under the polygon's MBR, and an exact even-odd
// crossing test written here (not the engine's geometry kernel) decides
// each one; boundary points count as inside, as they do for the engines.
// Points are numbered in the order they were added, so a dynamic workload
// can ask for the answer over the first m points only.
type oracle struct {
	g     int       // grid cells per side
	cells [][]int32 // point indexes per cell, ascending
	pts   []geom.Point
}

// newOracle indexes pts (in order) on a grid of about perCell points per
// cell.
func newOracle(pts []geom.Point, perCell int) *oracle {
	g := int(math.Sqrt(float64(len(pts)) / float64(perCell)))
	g = max(g, 1)
	o := &oracle{g: g, cells: make([][]int32, g*g), pts: pts}
	for i, p := range pts {
		c := o.cell(p.X, p.Y)
		o.cells[c] = append(o.cells[c], int32(i))
	}
	return o
}

func (o *oracle) coord(v float64) int {
	return min(max(int(v*float64(o.g)), 0), o.g-1)
}

func (o *oracle) cell(x, y float64) int { return o.coord(y)*o.g + o.coord(x) }

// query returns the indexes, ascending, of the points among the first
// limit that lie inside pg.
func (o *oracle) query(pg geom.Polygon, limit int) []int32 {
	mbr := pg.Bounds()
	var out []int32
	for cy := o.coord(mbr.MinY); cy <= o.coord(mbr.MaxY); cy++ {
		for cx := o.coord(mbr.MinX); cx <= o.coord(mbr.MaxX); cx++ {
			for _, i := range o.cells[cy*o.g+cx] {
				if int(i) >= limit {
					break
				}
				p := o.pts[i]
				if p.X < mbr.MinX || p.X > mbr.MaxX || p.Y < mbr.MinY || p.Y > mbr.MaxY {
					continue
				}
				if insidePolygon(pg, p) {
					out = append(out, i)
				}
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// mbrPoints returns the points inside rect: the candidate set of the
// traditional filter-and-refine method, replayed by the geometry probe.
func (o *oracle) mbrPoints(rect geom.Rect, dst []geom.Point) []geom.Point {
	for cy := o.coord(rect.MinY); cy <= o.coord(rect.MaxY); cy++ {
		for cx := o.coord(rect.MinX); cx <= o.coord(rect.MaxX); cx++ {
			for _, i := range o.cells[cy*o.g+cx] {
				if p := o.pts[i]; rect.ContainsPoint(p) {
					dst = append(dst, p)
				}
			}
		}
	}
	return dst
}

// insidePolygon reports whether p lies in the closed polygon: on the
// boundary of any ring, or inside by the even-odd crossing-number rule
// over the outer ring and every hole. The side tests are exact, so a point
// a rounding error away from an edge is placed on its true side.
func insidePolygon(pg geom.Polygon, p geom.Point) bool {
	in, on := crossings(pg.Outer, p)
	for _, h := range pg.Holes {
		if on {
			break
		}
		var odd bool
		odd, on = crossings(h, p)
		if odd {
			in = !in
		}
	}
	return in || on
}

// crossings reports whether the rightward horizontal ray from p crosses
// the ring an odd number of times, and whether p lies on one of its edges.
// An edge spans the ray's line iff exactly one endpoint is strictly above
// p; it crosses to the right of p iff p is left of the edge directed
// upward.
func crossings(ring geom.Ring, p geom.Point) (odd, on bool) {
	j := len(ring) - 1
	for i := range ring {
		a, b := ring[j], ring[i]
		j = i
		if p.Y < min(a.Y, b.Y) || p.Y > max(a.Y, b.Y) {
			continue
		}
		s := orientSign(a, b, p)
		if s == 0 && p.X >= min(a.X, b.X) && p.X <= max(a.X, b.X) {
			return false, true
		}
		if (a.Y > p.Y) != (b.Y > p.Y) && (b.Y > a.Y) == (s > 0) {
			odd = !odd
		}
	}
	return odd, false
}

// orientErrBound bounds the rounding error of the floating-point
// orientation determinant relative to the sum of its terms' magnitudes
// (Shewchuk's ccwerrboundA, (3 + 16ε)ε with ε = 2^-53).
const orientErrBound = (3 + 16*0x1p-53) * 0x1p-53

// orientSign returns the sign of the cross product (b-a)×(c-a): +1 when
// a, b, c turn counterclockwise, -1 clockwise, 0 collinear. It is exact:
// the floating-point determinant decides when it clears its error bound,
// and rational arithmetic decides otherwise.
func orientSign(a, b, c geom.Point) int {
	l := (a.X - c.X) * (b.Y - c.Y)
	r := (a.Y - c.Y) * (b.X - c.X)
	det := l - r
	if bound := orientErrBound * (math.Abs(l) + math.Abs(r)); det > bound {
		return 1
	} else if -det > bound {
		return -1
	}
	rat := func(v float64) *big.Rat { return new(big.Rat).SetFloat64(v) }
	sub := func(x, y float64) *big.Rat { return new(big.Rat).Sub(rat(x), rat(y)) }
	exact := new(big.Rat).Mul(sub(a.X, c.X), sub(b.Y, c.Y))
	exact.Sub(exact, new(big.Rat).Mul(sub(a.Y, c.Y), sub(b.X, c.X)))
	return exact.Sign()
}

// answers holds the oracle result of every region in a pool, as engine
// ids, for comparison with engine output (every engine returns ascending
// ids).
type answers [][]int64

// staticAnswers computes the oracle answer of each polygon over all
// points, where a point's id is its index.
func staticAnswers(o *oracle, polys []geom.Polygon) answers {
	out := make(answers, len(polys))
	for i, pg := range polys {
		idx := o.query(pg, len(o.pts))
		ids := make([]int64, len(idx))
		for j, v := range idx {
			ids[j] = int64(v)
		}
		out[i] = ids
	}
	return out
}
