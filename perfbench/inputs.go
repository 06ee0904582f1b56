package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"

	rangereach "repro"
)

// query is one RangeReach query.
type query struct {
	v int
	r rangereach.Rect
}

// datasetSeed fixes each workload's network, the way the paper fixes
// its datasets: the workload seed draws the queries and update streams
// over it. A network redrawn per seed moved qps and the latency tails
// by more than a run's own noise (index size alone by ±5%), which would
// make every seed a different benchmark.
const datasetSeed = 1

// writeNetwork generates a preset network and writes it in the
// geosocial text format: the only form in which the timed set-up
// receives it. The generated value is returned for the query and update
// generators.
func writeNetwork(preset string, scale float64, path string) (*rangereach.Network, error) {
	var net *rangereach.Network
	switch preset {
	case "yelp-like":
		net = rangereach.YelpLike(scale, datasetSeed)
	case "gowalla-like":
		net = rangereach.GowallaLike(scale, datasetSeed)
	default:
		return nil, fmt.Errorf("unknown preset %q", preset)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := net.Save(f); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return net, nil
}

// Query-grid axes of the paper's §6.1 evaluation.
var (
	extentsPct    = []float64{1, 2, 5, 10, 20}
	selectivities = []float64{0.001, 0.01, 0.1, 1}
	degreeBuckets = [][2]int{{1, 49}, {50, 99}, {100, 149}, {150, 199}, {200, math.MaxInt32}}
)

// defaultBucket is the paper's default out-degree bucket (50–99).
const defaultBucket = 1

// queryGen draws query vertices by out-degree bucket and regions by
// extent or selectivity, over one network.
type queryGen struct {
	rng      *rand.Rand
	space    rangereach.Rect
	nv       int
	byBucket [][]int
	pts      [][2]float64 // venue points sorted by x
}

func newQueryGen(net *rangereach.Network, rng *rand.Rand) *queryGen {
	g := &queryGen{rng: rng, space: net.Space(), nv: net.NumVertices(), byBucket: make([][]int, len(degreeBuckets))}
	for v := 0; v < g.nv; v++ {
		d := net.OutDegree(v)
		for b, bk := range degreeBuckets {
			if d >= bk[0] && d <= bk[1] {
				g.byBucket[b] = append(g.byBucket[b], v)
				break
			}
		}
		if x, y, ok := net.PointOf(v); ok {
			g.pts = append(g.pts, [2]float64{x, y})
		}
	}
	sort.Slice(g.pts, func(i, j int) bool { return g.pts[i][0] < g.pts[j][0] })
	return g
}

// vertex draws a vertex of out-degree bucket b, falling back to the
// nearest non-empty bucket (the small presets have few hubs).
func (g *queryGen) vertex(b int) int {
	for d := 0; d < len(degreeBuckets); d++ {
		for _, i := range []int{b - d, b + d} {
			if i >= 0 && i < len(g.byBucket) && len(g.byBucket[i]) > 0 {
				return g.byBucket[i][g.rng.Intn(len(g.byBucket[i]))]
			}
		}
	}
	return g.rng.Intn(g.nv)
}

// region draws a square-ish region covering extentPct of the space.
func (g *queryGen) region(extentPct float64) rangereach.Rect {
	f := math.Sqrt(extentPct / 100)
	w := (g.space.MaxX - g.space.MinX) * f
	h := (g.space.MaxY - g.space.MinY) * f
	x := g.space.MinX + g.rng.Float64()*((g.space.MaxX-g.space.MinX)-w)
	y := g.space.MinY + g.rng.Float64()*((g.space.MaxY-g.space.MinY)-h)
	return rangereach.NewRect(x, y, x+w, y+h)
}

// regionSel draws a square around a random venue holding about selPct
// of |V| venues.
func (g *queryGen) regionSel(selPct float64) rangereach.Rect {
	if len(g.pts) == 0 {
		return g.region(1)
	}
	target := int(float64(g.nv) * selPct / 100)
	if target < 1 {
		target = 1
	}
	c := g.pts[g.rng.Intn(len(g.pts))]
	lo, hi := 0.0, 2*math.Max(g.space.MaxX-g.space.MinX, g.space.MaxY-g.space.MinY)
	for i := 0; i < 30; i++ {
		mid := (lo + hi) / 2
		if g.countIn(c, mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return rangereach.NewRect(c[0]-hi/2, c[1]-hi/2, c[0]+hi/2, c[1]+hi/2)
}

func (g *queryGen) countIn(c [2]float64, side float64) int {
	x0, x1 := c[0]-side/2, c[0]+side/2
	i := sort.Search(len(g.pts), func(i int) bool { return g.pts[i][0] >= x0 })
	n := 0
	for ; i < len(g.pts) && g.pts[i][0] <= x1; i++ {
		if y := g.pts[i][1]; y >= c[1]-side/2 && y <= c[1]+side/2 {
			n++
		}
	}
	return n
}

// baseNetwork is the network text file parsed back by the benchmark,
// independently of the library's reader: the churn replay starts from
// it.
type baseNetwork struct {
	n      int
	points map[int][2]float64
	edges  [][2]int32
}

func parseNetwork(path string) (*baseNetwork, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := &baseNetwork{points: map[int][2]float64{}}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) == 0 {
			continue
		}
		var perr error
		num := func(i int) float64 {
			v, err := strconv.ParseFloat(fs[i], 64)
			if err != nil && perr == nil {
				perr = err
			}
			return v
		}
		switch fs[0] {
		case "vertices":
			b.n = int(num(1))
		case "p":
			b.points[int(num(1))] = [2]float64{num(2), num(3)}
		case "e":
			b.edges = append(b.edges, [2]int32{int32(num(1)), int32(num(2))})
		case "g":
			perr = fmt.Errorf("extent vertices are not generated by the benchmark presets")
		}
		if perr != nil {
			return nil, fmt.Errorf("%s: %q: %w", path, sc.Text(), perr)
		}
	}
	return b, sc.Err()
}
