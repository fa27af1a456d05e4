package main

// Phases the workloads share: repeated set-up, check-in ingest, the
// profile (rebuild) round, merge rounds, restart-and-recover, and the
// longitudinal attack check. Each adds samples of its end-to-end metric;
// the reported value is the median over the run.

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/adnet"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/edgecluster"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

const (
	// setupRepeats is how many times each workload sets up from
	// scratch; setup_s is the median.
	setupRepeats = 5
	// paperBand500 is the paper's ceiling for the longitudinal attack
	// against the 10-fold defense: top-1 recovered within 500 m for at
	// most 6.8% of users.
	paperBand500 = 0.068
)

// setupRepeated runs a workload's set-up setupRepeats times, adds each
// duration as a setup_s sample, and keeps the last deployment.
func setupRepeated[D interface{ close() }](r *run, setup func() (D, error)) (D, error) {
	var d D
	for k := 0; k < setupRepeats; k++ {
		runtime.GC()
		start := time.Now()
		nd, err := setup()
		if err != nil {
			if k > 0 {
				d.close()
			}
			return d, err
		}
		r.add("setup_s", time.Since(start).Seconds(), 1)
		if k > 0 {
			d.close()
		}
		d = nd
	}
	return d, nil
}

// ingestChunk sends batches [lo, hi) after a collection, in subSamples
// timed parts, each adding its rate as a checkins_per_s sample, and
// returns the check-ins acknowledged.
func ingestChunk(r *run, c *conns, batches []batch, lo, hi int) int64 {
	r.phase()
	var acked int64
	for s := 0; s < subSamples; s++ {
		slo, shi := span(lo, hi, s, subSamples)
		n, took := ingest(r, c, batches, slo, shi)
		r.add("checkins_per_s", float64(n)/took.Seconds(), int(n))
		acked += n
	}
	return acked
}

// rebuildCounter instruments an engine that serves no HTTP front and
// returns a reader of its engine_rebuilds_total, which counts users
// whose rebuild found pending check-ins.
func rebuildCounter(e *core.Engine) func() uint64 {
	reg := telemetry.NewRegistry()
	e.Instrument(reg)
	return reg.Counter("engine_rebuilds_total", "").Value
}

// rebuilds accumulates the profile rounds of one run.
type rebuilds struct {
	users uint64
	took  time.Duration
}

// round runs one profile round over e's whole population, after one
// collection, as rateChunks RebuildPart sub-rounds — together
// byte-identical to one RebuildAll — adding each sub-round's users per
// second as a rebuild_users_per_s sample. rebuilt reads the engine's
// rebuild counter.
func (b *rebuilds) round(r *run, e *core.Engine, rebuilt func() uint64, at time.Time) error {
	r.phase()
	for part := 0; part < rateChunks; part++ {
		before := rebuilt()
		start := time.Now()
		if err := e.RebuildPart(at, r.workers, part, rateChunks); err != nil {
			return fmt.Errorf("RebuildPart %d/%d: %w", part, rateChunks, err)
		}
		d := time.Since(start)
		k := rebuilt() - before
		b.users += k
		b.took += d
		r.add("rebuild_users_per_s", float64(k)/d.Seconds(), int(k))
	}
	return nil
}

// report sets the per-user rebuild cost and checks every round rebuilt
// the whole population.
func (b *rebuilds) report(r *run, rounds, users int) {
	if b.users > 0 {
		r.set("core.rebuild_us_per_user", b.took.Seconds()*1e6/float64(b.users), int(b.users))
	}
	r.check("rebuild-covers-population", int(b.users) == rounds*users,
		fmt.Sprintf("rebuilt %d users in %d rounds of %d", b.users, rounds, users))
}

// merges accumulates a run's Cluster.MergeProfilesStats rounds.
type merges struct {
	per            *dist
	changed, bytes int
}

func newMerges() *merges { return &merges{per: newDist(0)} }

// round merges every given user, in sorted order, in subSamples timed
// parts, each adding its users per second as a merge_users_per_s sample.
func (m *merges) round(r *run, c *edgecluster.Cluster, ids []string, at time.Time) error {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	r.phase()
	for s := 0; s < subSamples; s++ {
		lo, hi := span(0, len(sorted), s, subSamples)
		if err := m.part(r, c, sorted[lo:hi], at); err != nil {
			return err
		}
	}
	return nil
}

func (m *merges) part(r *run, c *edgecluster.Cluster, ids []string, at time.Time) error {
	count := r.op("merge")
	start := time.Now()
	for _, id := range ids {
		count.Attempted.Add(1)
		t0 := time.Now()
		_, st, err := c.MergeProfilesStats(id, at)
		m.per.addDuration(time.Since(t0))
		if err != nil {
			count.Failed.Add(1)
			return fmt.Errorf("merging %s: %w", id, err)
		}
		if st.Degraded {
			count.Failed.Add(1)
		}
		if st.DeltaEntries > 0 {
			m.changed++
			m.bytes += st.DeltaBytes
		}
	}
	r.add("merge_users_per_s", float64(len(ids))/time.Since(start).Seconds(), len(ids))
	return nil
}

func (m *merges) report(r *run) {
	r.set("edgecluster.merge_p50_ms", m.per.quantile(0.5)/1e6, m.per.n())
	if m.changed > 0 {
		r.set("edgecluster.delta_bytes_per_changed_user", float64(m.bytes)/float64(m.changed), m.changed)
	}
}

// restart recovers st's checkpoint and log tail into a fresh engine
// built from cfg and returns it with the time Recover took.
func restart(r *run, st core.DurableStore, cfg core.Config) (*core.Engine, time.Duration, error) {
	fresh, err := core.NewEngine(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("building recovery engine: %w", err)
	}
	r.phase()
	start := time.Now()
	stats, err := fresh.Recover(st)
	took := time.Since(start)
	if err != nil {
		_ = fresh.Close()
		return nil, 0, fmt.Errorf("recovering: %w", err)
	}
	r.observeHeap()
	if stats.OpErrors > 0 {
		r.check("recover-op-errors", false, fmt.Sprintf("%d replayed records failed", stats.OpErrors))
	}
	return fresh, took, nil
}

// restartAndCompare recovers st into a fresh engine, checks its tables'
// digest is want, closes it and returns the Recover time.
func restartAndCompare(r *run, name string, want uint64, st core.DurableStore, cfg core.Config) (time.Duration, error) {
	fresh, took, err := restart(r, st, cfg)
	if err != nil {
		return 0, err
	}
	got, err := populationDigest(fresh)
	if cerr := fresh.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	r.check(name, got == want, fmt.Sprintf("recovered %016x, want %016x", got, want))
	return took, nil
}

// attackCheck mounts the longitudinal attack (Algorithm 1) on every
// user's stream in the ad network's bid log and checks the defense
// keeps top-1 recovery within 500 m inside the paper band.
func attackCheck(r *run, nw *adnet.Network, ds *trace.Dataset, ids []string, mech *geoind.NFoldGaussian) error {
	rAlpha, err := mech.ConfidenceRadius(0.05)
	if err != nil {
		return err
	}
	byUser := make(map[string][]geo.Point, len(ids))
	for _, rec := range nw.BidLog() {
		byUser[rec.UserID] = append(byUser[rec.UserID], rec.Loc)
	}
	opts := attack.Options{Theta: 500, ClusterRadius: rAlpha}
	var results, truths [][]geo.Point
	for i, u := range ds.Users {
		obs := byUser[ids[i]]
		if len(obs) == 0 {
			continue
		}
		inferred, err := attack.TopN(obs, 1, opts)
		if err != nil {
			return fmt.Errorf("attacking %s: %w", ids[i], err)
		}
		results = append(results, inferred)
		truths = append(truths, []geo.Point{u.TrueTops[0].Pos})
	}
	rate := attack.SuccessRate(results, truths, 1, 500)
	r.note("attack_top1_500m", rate)
	r.note("attack_users", len(results))
	r.check("attack-paper-band", rate <= paperBand500,
		fmt.Sprintf("top-1 within 500 m for %.2f%% of %d users (band ≤ %.1f%%)", 100*rate, len(results), 100*paperBand500))
	return nil
}
