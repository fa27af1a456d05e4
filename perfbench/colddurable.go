package main

// cold-durable: a population ten times the resident cap on one edge
// with the cold tier and a write-ahead log (fsync policy "never" — on a
// shared VM fsync latency measures the neighbours, not the program).
// Check-ins arrive in a uniform-random user order, so nearly every
// touch faults a user in and evicts another: core eviction and
// fault-in, WAL append and replay, and the user-state encodings
// (snapshot, spill frame, log record) do most of the work here and none
// in serve-hot. Ad latency is measured only on a hot subset that stays
// resident, never on the spilled population.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/edgecluster"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/randx"
	"repro/internal/trace"
	"repro/internal/wal"
)

// coldPlan sizes cold-durable. The cap gives each of the engine's 64
// shards 100 residents; the population is ten times the cap. Hot users
// (about 47 a shard) stay resident through the serving rounds.
type coldPlan struct {
	users, maxResident int
	calls, batch       int
	hot                int
	campaigns          int
	nOpen, nCap        int
}

func planColdDurable(seconds int) coldPlan {
	s := float64(seconds)
	p := coldPlan{
		users: 64_000, maxResident: 6_400,
		calls: int(2600 * s), batch: 4,
		hot: 3000, campaigns: 200,
	}
	p.nOpen = int(openLoopRate * 0.3 * s)
	p.nCap = int(5000 * 0.08 * s)
	return p
}

// recoverRounds are the serving rounds after which a fresh engine
// recovers from the live engine's checkpoint and log, as the log stood
// before the serving rounds.
var recoverRounds = map[int]bool{0: true, 2: true, 4: true, 6: true, 7: true}

// coldStart is when the timed check-ins begin, one second apart; the
// profile round, the ads and the merges follow inside the same window.
var coldStart = time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)

type coldDeploy struct {
	ids     []string
	places  [][2]geo.Point // home, work
	order   []int          // user of ingest call i
	cluster *edgecluster.Cluster
	engine  *core.Engine
	store   *wal.Store
	log     *timedLog
	walDir  string
	node    *edgeNode
	mech    *geoind.NFoldGaussian
	nomadic *geoind.PlanarLaplace
	ads     []adOp
	ingest  *conns
}

func (d *coldDeploy) close() {
	if d.ingest != nil {
		d.ingest.close()
	}
	if d.node != nil {
		d.node.close()
	}
	if d.store != nil {
		_ = d.store.Close()
	}
	if d.engine != nil {
		_ = d.engine.Close()
	}
}

func setupColdDurable(r *run, p coldPlan) (*coldDeploy, error) {
	root, err := os.MkdirTemp(r.workdir, "cold-")
	if err != nil {
		return nil, fmt.Errorf("creating scratch dir: %w", err)
	}
	d := &coldDeploy{walDir: filepath.Join(root, "wal")}
	region := trace.Shanghai().BBox
	rnd := randx.New(r.seed, streamPopulation)
	d.ids = make([]string, p.users)
	d.places = make([][2]geo.Point, p.users)
	for u := range d.ids {
		d.ids[u] = fmt.Sprintf("u%07d", u)
		d.places[u] = [2]geo.Point{uniformIn(rnd, region), uniformIn(rnd, region)}
	}
	ord := randx.New(r.seed, streamOrder)
	d.order = make([]int, p.calls)
	for i := range d.order {
		d.order[i] = ord.IntN(p.users)
	}

	base, mech, nomadic, err := defense(r.seed)
	if err != nil {
		return nil, err
	}
	d.mech, d.nomadic = mech, nomadic
	base.SpillDir = filepath.Join(root, "spill")
	base.MaxResidentUsers = p.maxResident
	d.cluster, err = edgecluster.New(edgecluster.Config{
		Engine: base, Coverage: []geo.Circle{coverAll(region)}, MergeRegion: region, Seed: r.seed,
	})
	if err != nil {
		return nil, fmt.Errorf("building edge: %w", err)
	}
	d.engine = d.cluster.Nodes()[0].Engine
	if d.store, err = wal.Open(d.walDir, wal.Options{Policy: wal.SyncNever}); err != nil {
		d.close()
		return nil, fmt.Errorf("opening WAL: %w", err)
	}
	if r.trace {
		d.log = newTimedLog(d.store, p.calls+4*p.users)
		d.engine.SetDurability(d.log)
	} else {
		d.engine.SetDurability(d.store)
	}
	nOps := p.nOpen*(1+boolInt(r.trace)) + p.nCap
	r.tracedOps = nOps + p.hot
	network, err := adNetwork(r.seed, region, p.campaigns, nOps+p.hot+1)
	if err != nil {
		d.close()
		return nil, err
	}
	if d.node, err = startNode(r, d.engine, network, coldStart.Add(48*time.Hour)); err != nil {
		d.close()
		return nil, err
	}
	if d.ingest, err = dial(d.node.plain.url, r.workers, nil); err != nil {
		d.close()
		return nil, err
	}
	// The population exists before the timed ingest, so a random touch
	// finds its user spilled nine times in ten.
	seedItems := make([]core.BatchReport, 0, 1024)
	for u := 0; u < p.users; u++ {
		seedItems = append(seedItems, core.BatchReport{UserID: d.ids[u], Pos: d.places[u][0], At: coldStart.Add(-time.Hour)})
		if len(seedItems) == cap(seedItems) || u == p.users-1 {
			if errs := d.engine.ReportBatch(seedItems); len(errs) > 0 {
				d.close()
				return nil, fmt.Errorf("seeding population: %w", errs[0].Err)
			}
			seedItems = seedItems[:0]
		}
	}
	// Hot users ask from home or work 90% of the time.
	ads := randx.New(r.seed, streamAds)
	d.ads = make([]adOp, nOps+p.hot)
	for i := range d.ads {
		u := i
		if i >= p.hot {
			u = ads.IntN(p.hot)
		}
		d.ads[i] = adOp{user: u, pos: uniformIn(ads, region)}
		if ads.Float64() < 0.9 {
			d.ads[i].pos = d.places[u][ads.IntN(2)].Add(ads.GaussianPolar(5))
		}
	}
	return d, nil
}

// coldBatch generates ingest call i: a batch of check-ins of one user,
// 70% at home and 30% at work with 15 m of GPS wander.
func coldBatch(d *coldDeploy, seed uint64, i, size int) batch {
	u := d.order[i]
	rnd := randx.New(seed^uint64(i)*randx.GoldenGamma, streamPopulation)
	b := batch{user: u, items: make([]edge.ReportRequest, size)}
	at := coldStart.Add(time.Duration(i) * time.Second)
	for k := range b.items {
		place := d.places[u][0]
		if rnd.Float64() >= 0.7 {
			place = d.places[u][1]
		}
		b.items[k] = edge.ReportRequest{UserID: d.ids[u], Pos: place.Add(rnd.GaussianPolar(15)), Time: at}
	}
	return b
}

func coldDurable(r *run) error {
	p := planColdDurable(r.seconds)
	d, err := setupRepeated(r, func() (*coldDeploy, error) { return setupColdDurable(r, p) })
	if err != nil {
		return err
	}
	defer d.close()

	// Check-in ingest in random user order, with one checkpoint half-way.
	tier0 := d.engine.TierStats()
	var logBytes0 int64
	if d.log != nil {
		logBytes0 = d.log.bytes.Load()
	}
	var acked int64
	for k := 0; k < rateChunks; k++ {
		if k == rateChunks/2 {
			if err := checkpoint(r, d); err != nil {
				return err
			}
		}
		lo, hi := span(0, p.calls, k, rateChunks)
		batches := make([]batch, hi-lo)
		for i := range batches {
			batches[i] = coldBatch(d, r.seed, lo+i, p.batch)
		}
		acked += ingestChunk(r, d.ingest, batches, 0, len(batches))
	}
	tier := d.engine.TierStats()
	r.set("core.evictions_per_checkin", float64(tier.Evictions-tier0.Evictions)/float64(acked), int(acked))
	r.set("core.faultins_per_checkin", float64(tier.FaultIns-tier0.FaultIns)/float64(acked), int(acked))
	r.note("resident_users", tier.Resident)
	r.note("spilled_users", tier.Spilled)
	if d.log != nil {
		r.set("wal.bytes_per_checkin", float64(d.log.bytes.Load()-logBytes0)/float64(acked), int(acked))
	}
	if size := dirSize(d.engine.Config().SpillDir); tier.Spilled > 0 {
		r.set("core.spill_bytes_per_user", float64(size)/float64(tier.Spilled), tier.Spilled)
	}
	r.check("cold-tier-engaged", tier.Spilled >= 9*p.maxResident && tier.SpillErrors == 0,
		fmt.Sprintf("%d spilled, %d resident, %d spill errors", tier.Spilled, tier.Resident, tier.SpillErrors))

	// Incremental profile rounds: most users fault in to be rebuilt.
	var rb rebuilds
	if err := rb.round(r, d.engine, func() uint64 { return d.node.counter("engine_rebuilds_total") }, coldStart.Add(24*time.Hour)); err != nil {
		return err
	}
	rb.report(r, 1, p.users)

	// Warm the hot subset (untimed) so the ad phases run on resident
	// state only.
	warm, err := newAdRun(r, []*edgeNode{d.node}, d.ads[:p.hot], d.ids, 0, p.hot)
	if err != nil {
		return err
	}
	warm.capacity(0, p.hot)
	warm.close()
	faults := d.engine.TierStats().FaultIns

	// Serving rounds: ads at the fixed rate and at capacity, a merge
	// round over the hot users and, in some rounds, a fresh engine
	// recovering from the checkpoint plus the log tail as a crash right
	// after a log flush would leave them.
	a, err := newAdRun(r, []*edgeNode{d.node}, d.ads[p.hot:], d.ids, p.nOpen, p.nCap)
	if err != nil {
		return err
	}
	defer a.close()
	// Every recovery restores the log as it stands now, before the
	// serving rounds append their implicit check-ins and merges, and
	// must reach the tables the live engine holds now.
	var rec core.DurableStore = logPrefix{DurableStore: d.store, end: d.store.NextLSN()}
	var replay *timedLog
	if r.trace {
		replay = newTimedLog(rec, 1)
		rec = replay
	}
	want, err := populationDigest(d.engine)
	if err != nil {
		return err
	}
	mg := newMerges()
	for k := 0; k < rateChunks; k++ {
		a.round(k, rateChunks)
		if err := mg.round(r, d.cluster, d.ids[:p.hot], coldStart.Add(72*time.Hour)); err != nil {
			return err
		}
		if recoverRounds[k] {
			cfg := d.engine.Config()
			if cfg.SpillDir, err = r.scratch(fmt.Sprintf("recover-spill-%d", k)); err != nil {
				return err
			}
			took, err := restartAndCompare(r, fmt.Sprintf("recovered-digest-%d", k), want, rec, cfg)
			if err != nil {
				return err
			}
			r.add("recover_s", took.Seconds(), 1)
		}
	}
	r.check("ads-on-resident-state", d.engine.TierStats().FaultIns == faults,
		fmt.Sprintf("%d fault-ins during the serving rounds", d.engine.TierStats().FaultIns-faults))
	mg.report(r)
	a.finish()

	if r.trace {
		if replay.replayNs.Load() > 0 {
			r.set("wal.replay_records_per_s", float64(replay.replayRecs.Load())/(float64(replay.replayNs.Load())/1e9), int(replay.replayRecs.Load()))
		}
		r.set("wal.append_p50_us", d.log.appends.snapshot().quantile(0.5)/1e3, int(d.log.appendCount.Load()))
		// Output selection is timed without the log attached.
		d.engine.SetDurability(nil)
		batches := make([]batch, 0, 2000)
		for i := 0; i < 2000; i++ {
			batches = append(batches, coldBatch(d, r.seed, i, p.batch))
		}
		return layerBench(r, layerInputs{
			engine: d.engine, mech: d.mech, nomadic: d.nomadic,
			batches: batches, ads: a.ops, ids: d.ids,
		})
	}
	return nil
}

// checkpoint writes one engine checkpoint into the WAL directory.
func checkpoint(r *run, d *coldDeploy) error {
	runtime.GC()
	start := time.Now()
	lsn, data, err := d.engine.Checkpoint()
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := d.store.WriteCheckpoint(lsn, data); err != nil {
		return fmt.Errorf("writing checkpoint: %w", err)
	}
	r.set("wal.checkpoint_s", time.Since(start).Seconds(), 1)
	r.set("wal.checkpoint_bytes", float64(len(data)), 1)
	return nil
}

// dirSize sums the sizes of the regular files directly under dir.
func dirSize(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
