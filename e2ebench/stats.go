package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of positive values; NaN when xs is
// empty or holds a value <= 0.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// groupMedians returns, in first-seen key order, the median of each
// key's values.
type groupMedians struct {
	order []string
	vals  map[string][]float64
}

func newGroupMedians() *groupMedians {
	return &groupMedians{vals: map[string][]float64{}}
}

func (g *groupMedians) add(key string, v float64) {
	if _, ok := g.vals[key]; !ok {
		g.order = append(g.order, key)
	}
	g.vals[key] = append(g.vals[key], v)
}

// geomeanOfMedians weighs every key equally: the geometric mean over keys
// of each key's median. A mix-wide median would jump between templates
// whose latencies differ by orders of magnitude.
func (g *groupMedians) geomeanOfMedians() float64 {
	meds := make([]float64, 0, len(g.order))
	for _, k := range g.order {
		meds = append(meds, median(g.vals[k]))
	}
	return geomean(meds)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
