// Command perfbench is the repository's end-to-end benchmark. It drives
// the real serving path — internal/client → binary internal/wire over
// loopback HTTP → internal/edge → internal/core → internal/adnet — plus
// the WAL, cold-tier and edgecluster paths, on one of three workloads,
// checks that the outputs are correct, and prints every metric by name.
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
//
// With -trace 0 the last line of standard output reports the end-to-end
// metrics; with -trace 1 it reports the per-layer metrics of a traced
// run. The line before it carries the host fingerprint, sample counts,
// per-operation-type attempted/failed counts and every correctness check.
// A failed check exits with status 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// PRNG stream selectors for the benchmark's independent input families.
const (
	streamPopulation = 0xBE4C1
	streamCampaigns  = 0xBE4C2
	streamAds        = 0xBE4C3
	streamOrder      = 0xBE4C4
	streamLayers     = 0xBE4C5
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, in BENCHMARK.json
// order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ads_p50_ms", "ms"},
	{"ads_p90_ms", "ms"},
	{"ads_per_s", "1/s"},
	{"checkins_per_s", "1/s"},
	{"rebuild_users_per_s", "1/s"},
	{"recover_s", "s"},
	{"merge_users_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics every traced run reports.
var perLayer = []metricDef{
	{"client.call_p50_us", "us"},
	{"client.codec_p50_us", "us"},
	{"edge.handler_p50_us", "us"},
	{"edge.transport_p50_us", "us"},
	{"edge.unaccounted_p50_us", "us"},
	{"edge.ads_kept_ratio", "ratio"},
	{"wire.req_bytes", "B"},
	{"wire.resp_bytes", "B"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"core.apply_p50_us", "us"},
	{"core.select_ns", "ns"},
	{"core.rebuild_us_per_user", "us"},
	{"core.table_hit_ratio", "ratio"},
	{"core.nomadic_ratio", "ratio"},
	{"core.evictions_per_checkin", "ratio"},
	{"core.faultins_per_checkin", "ratio"},
	{"core.rollover_rebuilds", "count"},
	{"core.spill_bytes_per_user", "B"},
	{"profile.build_us_per_user", "us"},
	{"geoind.nfold_obfuscate_us", "us"},
	{"geoind.laplace_obfuscate_us", "us"},
	{"geoind.accountant_ns", "ns"},
	{"geoind.budget_denied", "count"},
	{"wal.append_p50_us", "us"},
	{"wal.bytes_per_checkin", "B"},
	{"wal.checkpoint_s", "s"},
	{"wal.checkpoint_bytes", "B"},
	{"wal.replay_records_per_s", "1/s"},
	{"adnet.provider_p50_us", "us"},
	{"adnet.ads_fetched_per_request", "count"},
	{"edgecluster.merge_p50_ms", "ms"},
	{"edgecluster.delta_bytes_per_changed_user", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.alloc_bytes_per_op", "B"},
	{"gen.late_p50_ms", "ms"},
	{"gen.late_max_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// driver runs one named workload. idle are the per-layer metrics the
// workload does not exercise: a traced run reports those as 0 and lists
// them, and fails on any other per-layer metric it did not produce.
type driver struct {
	drive func(*run) error
	idle  []string
}

// walMetrics and tierMetrics belong to the WAL and the cold tier, which
// only cold-durable attaches.
var (
	walMetrics  = []string{"wal.append_p50_us", "wal.bytes_per_checkin", "wal.checkpoint_s", "wal.checkpoint_bytes", "wal.replay_records_per_s"}
	tierMetrics = []string{"core.evictions_per_checkin", "core.faultins_per_checkin", "core.spill_bytes_per_user"}
)

// workloads maps each workload name to its driver. Every engine in the
// benchmark belongs to an edgecluster.Cluster, which turns off the
// per-edge profile-window rollover (profile rounds belong to the merge
// protocol there), so no workload exercises core.rollover_rebuilds. A
// one-edge cluster has no replica to ship deltas to, and roam-cluster's
// profile round is a merge round, with no Engine.RebuildPart to time.
var workloads = map[string]driver{
	"serve-hot": {serveHot, append(append([]string{"core.rollover_rebuilds",
		"edgecluster.delta_bytes_per_changed_user"}, walMetrics...), tierMetrics...)},
	"cold-durable": {coldDurable, []string{"core.rollover_rebuilds",
		"edgecluster.delta_bytes_per_changed_user", "profile.build_us_per_user"}},
	"roam-cluster": {roamCluster, append(append([]string{"core.rollover_rebuilds",
		"core.rebuild_us_per_user"}, walMetrics...), tierMetrics...)},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opCount tallies one operation type.
type opCount struct {
	Attempted atomic.Int64
	Failed    atomic.Int64
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// run is the state of one benchmark invocation.
type run struct {
	seed    uint64
	seconds int
	trace   bool
	workdir string
	workers int
	// tracedOps sizes the traced run's per-op buffers.
	tracedOps int

	mu      sync.Mutex
	metrics map[string]metric
	samples map[string]int
	ops     map[string]*opCount
	checks  []check
	notes   map[string]any

	// series holds the per-chunk samples of metrics reported as the
	// median of their samples.
	series map[string][]float64

	started  time.Time
	peakLive uint64
	heapObs  int
	rtStart  runtime.MemStats
	cpuStart cpuTicks
}

// set records a metric with the number of samples behind it.
func (r *run) set(name string, value float64, samples int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.started.IsZero() {
		fmt.Fprintf(os.Stderr, "perfbench: %6.2fs %s=%g (%d samples)\n", time.Since(r.started).Seconds(), name, value, samples)
	}
	r.metrics[name] = metric{Value: value, Unit: unitOf(name)}
	r.samples[name] = samples
}

// add records one sample of a metric reported as the median of its
// samples (a chunk rate, a sub-phase quantile, one restart), with the
// number of operations behind it.
func (r *run) add(name string, value float64, samples int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	unitOf(name) // panics on a name BENCHMARK.json does not declare
	if !r.started.IsZero() {
		fmt.Fprintf(os.Stderr, "perfbench: %6.2fs %s sample %g (%d ops)\n", time.Since(r.started).Seconds(), name, value, samples)
	}
	r.series[name] = append(r.series[name], value)
	r.samples[name] += samples
}

// op returns the attempted/failed tally of one operation type.
func (r *run) op(kind string) *opCount {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ops[kind]
	if !ok {
		c = &opCount{}
		r.ops[kind] = c
	}
	return c
}

func (r *run) check(name string, ok bool, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: detail})
}

func (r *run) note(key string, v any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes[key] = v
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: unknown metric " + name)
}

// phase prepares a timed phase: it collects garbage left by set-up and
// earlier phases so no phase pays for another's allocations, and
// records the live heap the collection leaves.
func (r *run) phase() {
	if r.started.IsZero() {
		r.started = time.Now()
		runtime.ReadMemStats(&r.rtStart)
		r.cpuStart = readCPUTicks()
	}
	r.observeHeap()
}

// observeHeap forces a collection and tracks the peak live heap.
// peak_heap_mb is that peak: the heap a phase boundary cannot collect,
// which, unlike a sampled HeapAlloc, does not depend on where the
// collector's cycles happened to fall.
func (r *run) observeHeap() {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	r.peakLive = max(r.peakLive, s[0].Value.Uint64())
	r.heapObs++
}

// rateChunks is how many chunks a phase is split into, and how many
// interleaved rounds a workload's serving phase runs.
const rateChunks = 8

// span returns chunk k of n over [lo, hi).
func span(lo, hi, k, n int) (int, int) {
	return lo + k*(hi-lo)/n, lo + (k+1)*(hi-lo)/n
}

// finish reports every sampled metric as the median of its samples, and
// the runtime's view of the timed phases: peak live heap, GC cycles and
// pauses, bytes allocated per operation.
func (r *run) finish() {
	for name, xs := range r.series {
		r.metrics[name] = metric{Value: median(xs), Unit: unitOf(name)}
	}
	if r.started.IsZero() {
		return
	}
	r.observeHeap()
	r.set("peak_heap_mb", float64(r.peakLive)/(1<<20), r.heapObs)
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	if d := readCPUTicks().sub(r.cpuStart); d.total > 0 {
		r.note("host_steal_share", float64(d.steal)/float64(d.total))
	}
	r.set("go.gc_cycles", float64(end.NumGC-r.rtStart.NumGC), 1)
	r.set("go.gc_pause_ms", float64(end.PauseTotalNs-r.rtStart.PauseTotalNs)/1e6, int(end.NumGC-r.rtStart.NumGC))
	ops := int64(0)
	for _, c := range r.ops {
		ops += c.Attempted.Load()
	}
	if ops > 0 {
		r.set("go.alloc_bytes_per_op", float64(end.TotalAlloc-r.rtStart.TotalAlloc)/float64(ops), int(ops))
	}
}

// host is the fingerprint recorded with every result: numbers from
// different hosts are not comparable.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func hostInfo() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// cpuTicks are the machine-wide CPU time counters of /proc/stat: all
// time, and the time the hypervisor ran other guests on this guest's
// vCPUs (steal). Their change over the timed phases says how much of
// the host this run did not get, which a slow run's numbers can then
// be checked against.
type cpuTicks struct{ total, steal uint64 }

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		if i < 8 { // user … steal; guest time is already in user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

func (t cpuTicks) sub(o cpuTicks) cpuTicks {
	if t.total < o.total || t.steal < o.steal {
		return cpuTicks{}
	}
	return cpuTicks{total: t.total - o.total, steal: t.steal - o.steal}
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name    = flag.String("workload", "", "workload: serve-hot, cold-durable or roam-cluster")
		seed    = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "approximate measured seconds; sets every phase's fixed operation count")
		traced  = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
		workdir = flag.String("workdir", ".bench_build", "scratch directory for WAL and spill files")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		warnf("unknown workload %q", *name)
		return 2
	}
	if *seconds < 1 || *traced < 0 || *traced > 1 {
		warnf("-seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		warnf("creating scratch dir: %v", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &run{
		seed: *seed, seconds: *seconds, trace: *traced == 1, workdir: dir,
		workers: runtime.NumCPU(),
		metrics: map[string]metric{}, samples: map[string]int{}, series: map[string][]float64{},
		ops: map[string]*opCount{}, notes: map[string]any{},
	}
	if err := wl.drive(r); err != nil {
		warnf("%s: %v", *name, err)
		return 1
	}
	r.finish()

	out, idle, err := r.result(wl.idle)
	if err != nil {
		warnf("%s: %v", *name, err)
		return 1
	}
	var attempted, failed int64
	ops := map[string]map[string]int64{}
	kinds := make([]string, 0, len(r.ops))
	for k := range r.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		a, f := r.ops[k].Attempted.Load(), r.ops[k].Failed.Load()
		ops[k] = map[string]int64{"attempted": a, "failed": f}
		attempted += a
		failed += f
	}
	correct := true
	for _, c := range r.checks {
		if !c.OK {
			correct = false
			warnf("check %s failed: %s", c.Name, c.Detail)
		}
	}
	detail := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *traced,
		"host": hostInfo(), "workers": r.workers, "ops": ops, "samples": r.samples,
		"checks": r.checks, "idle_metrics": idle, "notes": r.notes, "chunk_samples": r.series,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(detail); err != nil {
		warnf("writing report: %v", err)
		return 1
	}
	if err := enc.Encode(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": out,
	}); err != nil {
		warnf("writing result: %v", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// result picks the reported metrics: every end-to-end metric, or in a
// traced run every per-layer one, where a metric the workload declares
// idle reads 0 and is returned in idle. Any other missing metric is an
// error: a wrapper that recorded nothing must not pass as a 0.
func (r *run) result(idleOK []string) (out map[string]metric, idle []string, err error) {
	want := endToEnd
	if r.trace {
		want = perLayer
	}
	out = map[string]metric{}
	for _, d := range want {
		m, ok := r.metrics[d.name]
		switch {
		case ok:
		case r.trace && slices.Contains(idleOK, d.name):
			m = metric{Value: 0, Unit: d.unit}
			idle = append(idle, d.name)
		default:
			return nil, nil, fmt.Errorf("produced no %s", d.name)
		}
		out[d.name] = m
	}
	return out, idle, nil
}

// scratch returns a fresh directory under the run's scratch space.
func (r *run) scratch(name string) (string, error) {
	p := filepath.Join(r.workdir, name)
	if err := os.MkdirAll(p, 0o755); err != nil {
		return "", fmt.Errorf("creating %s: %w", p, err)
	}
	return p, nil
}
