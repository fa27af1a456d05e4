package main

// serve-hot: a fully resident, warmed population on one edge with no
// WAL and no resident cap. The request path does almost all the work —
// codec, HTTP, table lookup plus posterior selection, adnet.Match, the
// AOI filter — while spill, WAL and merge replication do none, so a
// change to those must show no movement here.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/adnet"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/edgecluster"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/randx"
	"repro/internal/trace"
)

// serveHotDigest is the population TableFingerprint digest serve-hot
// must reach after its profile round at seed 1. The inputs and the engine are
// deterministic, so any other value means the obfuscation tables
// changed.
const serveHotDigest = "d2cb7048fee2916a"

// hotPlan sizes serve-hot. The population is fixed so the digest does
// not depend on the run length; the serving rounds scale with it.
type hotPlan struct {
	users, minCk, maxCk, batch int
	campaigns                  int
	nOpen, nCap                int
}

func planServeHot(seconds int) hotPlan {
	s := float64(seconds)
	p := hotPlan{users: 3000, minCk: 40, maxCk: 160, batch: 8, campaigns: 200}
	p.nOpen = int(openLoopRate * 0.25 * s)
	p.nCap = int(15000 * 0.12 * s)
	return p
}

// copyRounds are the serving rounds whose first restarted copy of the
// ingested population is also rebuilt.
var copyRounds = map[int]bool{1: true, 3: true, 5: true, 7: true}

// restartsPerRound is how many times every serving round restarts the
// ingested population (roam-cluster restarts its edges as often).
// Recoveries of the same checkpoint one after another differ by a tenth
// or more on a shared host, so the run's median needs more than one a
// round.
const restartsPerRound = 2

// hotDeploy is one set-up of serve-hot: inputs generated, a one-edge
// deployment listening on loopback.
type hotDeploy struct {
	ds      *trace.Dataset
	ids     []string
	cluster *edgecluster.Cluster
	node    *edgeNode
	network *adnet.Network
	mech    *geoind.NFoldGaussian
	nomadic *geoind.PlanarLaplace
	batches []batch
	ads     []adOp
	ingest  *conns
}

func (d *hotDeploy) close() {
	if d.ingest != nil {
		d.ingest.close()
	}
	if d.node != nil {
		d.node.close()
	}
}

// hotTimes places the phases in time: check-ins span the generator's
// window; the profile round, the ads and the merges happen just after
// it, inside the current profile window.
func hotTimes(cfg trace.Config) (rebuildAt, serveAt, mergeAt time.Time) {
	return cfg.End, cfg.End.Add(time.Hour), cfg.End.Add(2 * time.Hour)
}

func setupServeHot(r *run, p hotPlan) (*hotDeploy, error) {
	tcfg := trace.DefaultConfig()
	tcfg.NumUsers, tcfg.MinCheckIns, tcfg.MaxCheckIns = p.users, p.minCk, p.maxCk
	tcfg.Seed, tcfg.Parallelism = r.seed, 1
	ds, err := trace.Generate(tcfg)
	if err != nil {
		return nil, fmt.Errorf("generating population: %w", err)
	}
	base, mech, nomadic, err := defense(r.seed)
	if err != nil {
		return nil, err
	}
	region := tcfg.Region.BBox
	cluster, err := edgecluster.New(edgecluster.Config{
		Engine:      base,
		Coverage:    []geo.Circle{coverAll(region)},
		MergeRegion: region,
		Seed:        r.seed,
	})
	if err != nil {
		return nil, fmt.Errorf("building edge: %w", err)
	}
	d := &hotDeploy{ds: ds, cluster: cluster, mech: mech, nomadic: nomadic}
	nOps := p.nOpen*(1+boolInt(r.trace)) + p.nCap
	r.tracedOps = nOps
	if d.network, err = adNetwork(r.seed, region, p.campaigns, nOps+1); err != nil {
		return nil, err
	}
	_, serveAt, _ := hotTimes(tcfg)
	if d.node, err = startNode(r, cluster.Nodes()[0].Engine, d.network, serveAt); err != nil {
		return nil, err
	}
	if d.ingest, err = dial(d.node.plain.url, r.workers, nil); err != nil {
		d.close()
		return nil, err
	}
	for i, u := range ds.Users {
		d.ids = append(d.ids, u.ID)
		d.batches = append(d.batches, userBatches(u, i, 0, p.batch)...)
	}
	d.ads = hotAdOps(r.seed, ds, region, nOps)
	return d, nil
}

// userBatches is user i's check-ins, shifted by shift, as batches of
// at most size.
func userBatches(u *trace.User, i int, shift time.Duration, size int) []batch {
	items := make([]edge.ReportRequest, len(u.CheckIns))
	for k, c := range u.CheckIns {
		items[k] = edge.ReportRequest{UserID: u.ID, Pos: c.Pos, Time: c.Time.Add(shift)}
	}
	return chunk(i, items, size)
}

// hotAdOps draws the ad requests: a uniformly chosen user asks from one
// of its routine locations (picked by visit frequency, 5 m of GPS
// jitter) 90% of the time and from anywhere in the region otherwise.
func hotAdOps(seed uint64, ds *trace.Dataset, region geo.BBox, n int) []adOp {
	rnd := randx.New(seed, streamAds)
	ops := make([]adOp, n)
	for i := range ops {
		u := rnd.IntN(len(ds.Users))
		ops[i] = adOp{user: u, pos: uniformIn(rnd, region)}
		if rnd.Float64() < 0.9 {
			ops[i].pos = weightedTop(rnd, ds.Users[u].TrueTops).Add(rnd.GaussianPolar(5))
		}
	}
	return ops
}

func weightedTop(rnd *randx.Rand, tops []trace.TopLocation) geo.Point {
	total := 0
	for _, t := range tops {
		total += t.Count
	}
	k := rnd.IntN(total)
	for _, t := range tops {
		if k < t.Count {
			return t.Pos
		}
		k -= t.Count
	}
	return tops[len(tops)-1].Pos
}

func uniformIn(rnd *randx.Rand, b geo.BBox) geo.Point {
	return geo.Point{X: b.MinX + rnd.Float64()*b.Width(), Y: b.MinY + rnd.Float64()*b.Height()}
}

// coverAll is a coverage disk around every point of b.
func coverAll(b geo.BBox) geo.Circle {
	return geo.Circle{
		Center: geo.Point{X: (b.MinX + b.MaxX) / 2, Y: (b.MinY + b.MaxY) / 2},
		Radius: math.Hypot(b.Width(), b.Height())/2 + 5000,
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func serveHot(r *run) error {
	p := planServeHot(r.seconds)
	d, err := setupRepeated(r, func() (*hotDeploy, error) { return setupServeHot(r, p) })
	if err != nil {
		return err
	}
	defer d.close()
	engine := d.node.engine
	tcfg := trace.DefaultConfig()
	rebuildAt, _, mergeAt := hotTimes(tcfg)
	later := tcfg.End.Sub(tcfg.Start)

	// History ingest. checkins_per_s is sampled in the serving rounds
	// only: a warm engine ingests at another rate than an empty one, and
	// a median over two kinds of sample would flip between them.
	r.phase()
	ingest(r, d.ingest, d.batches, 0, len(d.batches))
	// Only the traced run's wire timings need the batches again; the
	// rest would only inflate the live heap every collection scans.
	d.batches = append([]batch(nil), d.batches[:min(len(d.batches), layerSamples/2)]...)

	// The restart point: the ingested population, checkpointed in
	// memory (this edge keeps no log).
	lsn, data, err := engine.Checkpoint()
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	st := &memStore{ckpt: data}
	st.lsn.Store(lsn)

	// Table II — profile build plus n-fold obfuscation for every user.
	var rb rebuilds
	if err := rb.round(r, engine, func() uint64 { return d.node.counter("engine_rebuilds_total") }, rebuildAt); err != nil {
		return err
	}
	digest, err := populationDigest(engine)
	if err != nil {
		return err
	}
	got := fmt.Sprintf("%016x", digest)
	r.note("population_digest", got)
	if r.seed == 1 {
		r.check("serve-hot-digest", got == serveHotDigest, "digest "+got+", recorded "+serveHotDigest)
	}

	// Serving rounds: ads at the fixed rate, ads at capacity, fresh
	// check-ins, a merge round over what they left pending, and a
	// restart of the ingested population — in some rounds rebuilt too,
	// when it must reach exactly the live tables.
	a, err := newAdRun(r, []*edgeNode{d.node}, d.ads, d.ids, p.nOpen, p.nCap)
	if err != nil {
		return err
	}
	defer a.close()
	mg := newMerges()
	for k := 0; k < rateChunks; k++ {
		a.round(k, rateChunks)
		// Fresh check-ins: a slice of the users revisit their history's
		// places two years on.
		var fresh []batch
		ulo, uhi := span(0, len(d.ds.Users), k, rateChunks)
		for i := ulo; i < uhi; i++ {
			fresh = append(fresh, userBatches(d.ds.Users[i], i, later, p.batch)...)
		}
		ingestChunk(r, d.ingest, fresh, 0, len(fresh))
		if err := mg.round(r, d.cluster, d.ids, mergeAt); err != nil {
			return err
		}
		for j := 0; j < restartsPerRound; j++ {
			if err := restartCopy(r, st, engine.Config(), &rb, rebuildAt, digest, k, copyRounds[k] && j == 0); err != nil {
				return err
			}
		}
	}
	rb.report(r, 1+len(copyRounds), len(d.ids))
	mg.report(r)
	a.finish()
	if err := attackCheck(r, d.network, d.ds, d.ids, d.mech); err != nil {
		return err
	}
	if r.trace {
		return layerBench(r, layerInputs{
			engine: engine, ds: d.ds, mech: d.mech, nomadic: d.nomadic,
			batches: d.batches, ads: d.ads, ids: d.ids,
		})
	}
	return nil
}

// restartCopy recovers the ingested population's checkpoint into a
// fresh engine, adding the Recover time as a recover_s sample. With
// rebuild set it also runs a profile round over the copy, which must
// reach exactly the live tables' digest.
func restartCopy(r *run, st *memStore, cfg core.Config, rb *rebuilds, rebuildAt time.Time, digest uint64, round int, rebuild bool) error {
	restarted, took, err := restart(r, st, cfg)
	if err != nil {
		return err
	}
	r.add("recover_s", took.Seconds(), 1)
	if rebuild {
		err = rb.round(r, restarted, rebuildCounter(restarted), rebuildAt)
		if err == nil {
			var fp uint64
			fp, err = populationDigest(restarted)
			r.check(fmt.Sprintf("restarted-copy-%d-digest", round), fp == digest,
				fmt.Sprintf("copy %016x, live %016x", fp, digest))
		}
	}
	if cerr := restarted.Close(); err == nil {
		err = cerr
	}
	return err
}
