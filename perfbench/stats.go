package main

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/mathx"
)

// dist is an exact sample of per-operation values, kept in a buffer
// sized before the timed phase so recording never allocates. Percentiles
// are read from the sorted sample itself, not from bucketed histograms,
// so a run-to-run change in the tail is a change in the data and not in
// the bucketing.
type dist struct {
	v      []float64
	sorted bool
}

func newDist(capacity int) *dist { return &dist{v: make([]float64, 0, capacity)} }

// add records one value. Appending past the preallocated capacity still
// works; it just allocates, so phases size their buffers up front.
func (d *dist) add(x float64) {
	d.v = append(d.v, x)
	d.sorted = false
}

func (d *dist) addDuration(t time.Duration) { d.add(float64(t)) }

// merge appends every value of o.
func (d *dist) merge(o *dist) {
	d.v = append(d.v, o.v...)
	d.sorted = false
}

func (d *dist) n() int { return len(d.v) }

// quantile returns the exact q-quantile (0 ≤ q ≤ 1) of the sample by
// mathx.QuantileSorted: order statistics, linearly interpolated between
// neighbours. An empty sample yields 0.
func (d *dist) quantile(q float64) float64 {
	if len(d.v) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.v)
		d.sorted = true
	}
	v, err := mathx.QuantileSorted(d.v, q)
	if err != nil {
		panic(err) // q outside [0, 1] is a bug in the caller
	}
	return v
}

// max returns the largest value (0 when empty).
func (d *dist) max() float64 { return d.quantile(1) }

// mean returns the arithmetic mean (0 when empty).
func (d *dist) mean() float64 {
	if len(d.v) == 0 {
		return 0
	}
	var s float64
	for _, x := range d.v {
		s += x
	}
	return s / float64(len(d.v))
}

// quantileOf is the q-quantile of xs; xs is not modified.
func quantileOf(xs []float64, q float64) float64 {
	d := dist{v: append([]float64(nil), xs...)}
	return d.quantile(q)
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// slots holds one value per operation sequence number, written by
// whichever goroutine served that operation (an HTTP handler, a
// RoundTripper) and read after the phase has ended. Zero means "not
// recorded", so recorders store at least 1.
type slots []atomic.Int64

func newSlots(n int) slots { return make(slots, n) }

// set records v for op seq; sequence numbers outside the buffer are
// ignored so a wrapper can never index past it.
func (s slots) set(seq int, v int64) {
	if seq >= 0 && seq < len(s) {
		s[seq].Store(max(v, 1))
	}
}

func (s slots) get(seq int) int64 {
	if seq < 0 || seq >= len(s) {
		return 0
	}
	return s[seq].Load()
}

// concDist is a preallocated sample that many goroutines append to
// without a lock; values past the buffer are dropped.
type concDist struct {
	v []float64
	n atomic.Int64
}

func newConcDist(capacity int) *concDist { return &concDist{v: make([]float64, capacity)} }

func (c *concDist) add(x float64) {
	i := c.n.Add(1) - 1
	if i < int64(len(c.v)) {
		c.v[i] = x
	}
}

// snapshot returns the recorded values as a dist. Call it only after
// every writer has finished.
func (c *concDist) snapshot() *dist {
	n := min(c.n.Load(), int64(len(c.v)))
	return &dist{v: append([]float64(nil), c.v[:n]...)}
}
