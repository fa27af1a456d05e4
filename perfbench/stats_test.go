package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestQuantileExact(t *testing.T) {
	d := newDist(10)
	for _, x := range []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10} {
		d.add(x)
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.5, 5.5}, {0.9, 9.1}, {0.95, 9.55}, {1, 10}, {0.1, 1.9}, {0, 1},
	} {
		if got := d.quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if d.n() != 10 || d.max() != 10 || d.mean() != 5.5 {
		t.Errorf("n=%d max=%v mean=%v", d.n(), d.max(), d.mean())
	}
	// Adding after a read re-sorts.
	d.add(0)
	if got := d.quantile(0); got != 0 {
		t.Errorf("quantile after add = %v, want 0", got)
	}
}

func TestQuantileEmptyAndMerge(t *testing.T) {
	d := newDist(0)
	if d.quantile(0.5) != 0 || d.mean() != 0 || d.n() != 0 {
		t.Fatal("empty dist must report zeros")
	}
	a, b := newDist(2), newDist(2)
	a.addDuration(2 * time.Millisecond)
	b.addDuration(1 * time.Millisecond)
	b.addDuration(3 * time.Millisecond)
	a.merge(b)
	if a.n() != 3 || a.quantile(0.5) != float64(2*time.Millisecond) {
		t.Fatalf("merged n=%d p50=%v", a.n(), a.quantile(0.5))
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5 (between the middle two)", got)
	}
}

func TestSlotsAndConcDist(t *testing.T) {
	s := newSlots(3)
	s.set(0, 0) // stored as 1: zero means unrecorded
	s.set(2, 42)
	s.set(3, 7)  // out of range: ignored
	s.set(-1, 7) // out of range: ignored
	if s.get(0) != 1 || s.get(1) != 0 || s.get(2) != 42 || s.get(3) != 0 {
		t.Fatalf("slots = %d %d %d %d", s.get(0), s.get(1), s.get(2), s.get(3))
	}
	c := newConcDist(2)
	for _, x := range []float64{5, 6, 7} {
		c.add(x)
	}
	snap := c.snapshot()
	if snap.n() != 2 || snap.max() != 6 {
		t.Fatalf("snapshot n=%d max=%v", snap.n(), snap.max())
	}
}

// A sampled metric reports the median of its samples and the total
// count of operations behind them.
func TestAddReportsMedianAndSampleCount(t *testing.T) {
	r := &run{metrics: map[string]metric{}, samples: map[string]int{}, series: map[string][]float64{}}
	for _, s := range []struct {
		v float64
		n int
	}{{3, 100}, {1, 100}, {9, 50}, {2, 100}, {5, 100}} {
		r.add("ads_per_s", s.v, s.n)
	}
	r.set("recover_s", 1.5, 3)
	r.finish()
	if m := r.metrics["ads_per_s"]; m.Value != 3 || m.Unit != "1/s" || r.samples["ads_per_s"] != 450 {
		t.Errorf("ads_per_s = %+v with %d samples, want 3 1/s with 450", m, r.samples["ads_per_s"])
	}
	if m := r.metrics["recover_s"]; m.Value != 1.5 || r.samples["recover_s"] != 3 {
		t.Errorf("recover_s = %+v with %d samples", m, r.samples["recover_s"])
	}
	if lo, hi := span(10, 20, 3, 4); lo != 17 || hi != 20 {
		t.Errorf("span(10, 20, 3, 4) = [%d, %d), want [17, 20)", lo, hi)
	}
}

// The reported metrics must be exactly the ones BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, doc.EndToEnd)
	compare("per_layer", perLayer, doc.PerLayer)
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no driver", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d drivers", len(doc.Workloads), len(workloads))
	}
}

// A traced run reports a declared-idle metric as 0 and lists it; any
// other metric it did not produce fails the run, in either mode.
func TestResultIdleAndMissingMetrics(t *testing.T) {
	newRun := func(trace bool) *run {
		r := &run{trace: trace, metrics: map[string]metric{}}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			r.metrics[d.name] = metric{Value: 1, Unit: d.unit}
		}
		return r
	}
	r := newRun(true)
	delete(r.metrics, "wal.append_p50_us")
	out, idle, err := r.result([]string{"wal.append_p50_us"})
	if err != nil || len(out) != len(perLayer) || out["wal.append_p50_us"].Value != 0 ||
		len(idle) != 1 || idle[0] != "wal.append_p50_us" {
		t.Fatalf("idle metric: out=%d idle=%v err=%v", len(out), idle, err)
	}
	delete(r.metrics, "client.call_p50_us")
	if _, _, err := r.result([]string{"wal.append_p50_us"}); err == nil {
		t.Fatal("a missing metric that is not idle must fail a traced run")
	}
	r = newRun(false)
	delete(r.metrics, "ads_p90_ms")
	if _, _, err := r.result([]string{"ads_p90_ms"}); err == nil {
		t.Fatal("an untraced run must report every end-to-end metric")
	}
}

// Every idle metric a workload declares is a per-layer metric.
func TestIdleMetricsAreDeclared(t *testing.T) {
	for name, w := range workloads {
		for _, m := range w.idle {
			if !slices.ContainsFunc(perLayer, func(d metricDef) bool { return d.name == m }) {
				t.Errorf("%s: idle metric %s is not a per-layer metric", name, m)
			}
		}
	}
}
