package main

// roam-cluster: a three-edge cluster serving a traveler population
// (internal/workload's traveler mode). Each city is covered by an edge,
// so no request is uncovered. Most ad requests come from away from the
// user's routine locations, so the nomadic path — planar Laplace noise
// plus the engine-wide privacy Accountant — does the serving work,
// alongside secure-aggregation merges and delta replication. It is the
// same engine read path as serve-hot, used differently.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/edge"
	"repro/internal/edgecluster"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/randx"
	"repro/internal/trace"
	"repro/internal/workload"
)

type roamPlan struct {
	users, minCk, maxCk, batch int
	campaigns                  int
	nOpen, nCap                int
}

func planRoamCluster(seconds int) roamPlan {
	s := float64(seconds)
	p := roamPlan{users: 1000, minCk: 150, maxCk: 600, batch: 8, campaigns: 300}
	p.nOpen = int(openLoopRate * 0.25 * s)
	p.nCap = int(5000 * 0.15 * s)
	return p
}

// homeRegion is a 12 km × 12 km box in central Shanghai. It keeps the
// secure-aggregation grid (50 m cells over the merge region) small
// enough that a merge costs milliseconds. It keeps the catalog name so
// traveler trips go to the other catalog cities.
func homeRegion() (trace.Region, error) {
	sh := trace.Shanghai()
	const dLat, dLon = 0.054, 0.063
	return trace.NewRegion(sh.Name, sh.Origin,
		geo.LatLon{Lat: sh.Origin.Lat - dLat, Lon: sh.Origin.Lon - dLon},
		geo.LatLon{Lat: sh.Origin.Lat + dLat, Lon: sh.Origin.Lon + dLon})
}

// roamCoverage places three edges: one over the home box and Suzhou,
// one over Hangzhou, one over Nanjing. Each disk is centred on its
// first box and reaches every corner of its boxes plus 5 km.
func roamCoverage(home trace.Region) ([]geo.Circle, []geo.BBox, error) {
	boxes := map[string]geo.BBox{home.Name: home.BBox}
	for _, c := range trace.Cities() {
		if c.Name == home.Name {
			continue
		}
		b, err := c.InPlane(home.Origin)
		if err != nil {
			return nil, nil, err
		}
		boxes[c.Name] = b
	}
	groups := [][]string{{home.Name, "suzhou"}, {"hangzhou"}, {"nanjing"}}
	var cover []geo.Circle
	var all []geo.BBox
	for _, g := range groups {
		first, ok := boxes[g[0]]
		if !ok {
			return nil, nil, fmt.Errorf("city %s missing from the catalog", g[0])
		}
		c := geo.Circle{Center: geo.Point{X: (first.MinX + first.MaxX) / 2, Y: (first.MinY + first.MaxY) / 2}}
		for _, name := range g {
			b, ok := boxes[name]
			if !ok {
				return nil, nil, fmt.Errorf("city %s missing from the catalog", name)
			}
			for _, p := range []geo.Point{{X: b.MinX, Y: b.MinY}, {X: b.MinX, Y: b.MaxY}, {X: b.MaxX, Y: b.MinY}, {X: b.MaxX, Y: b.MaxY}} {
				c.Radius = math.Max(c.Radius, c.Center.Dist(p)+5000)
			}
			all = append(all, b)
		}
		cover = append(cover, c)
	}
	return cover, all, nil
}

type roamDeploy struct {
	wl      *workload.Workload
	ids     []string
	cluster *edgecluster.Cluster
	gateway *front
	nodes   []*edgeNode
	mech    *geoind.NFoldGaussian
	nomadic *geoind.PlanarLaplace
	batches []batch
	// fresh are the check-ins that arrive while the cluster serves: the
	// history's places revisited two years on.
	fresh  []batch
	ads    []adOp
	ingest *conns
	// cfg built the cluster; routeAds builds a probe cluster from it.
	cfg edgecluster.Config
}

func (d *roamDeploy) close() {
	if d.ingest != nil {
		d.ingest.close()
	}
	if d.gateway != nil {
		if err := d.gateway.close(); err != nil {
			warnf("closing gateway: %v", err)
		}
	}
	for _, n := range d.nodes {
		n.close()
	}
}

var roamServeAt = time.Date(2021, 6, 1, 1, 0, 0, 0, time.UTC)

func setupRoamCluster(r *run, p roamPlan) (*roamDeploy, error) {
	home, err := homeRegion()
	if err != nil {
		return nil, err
	}
	tcfg := trace.DefaultConfig()
	tcfg.NumUsers, tcfg.MinCheckIns, tcfg.MaxCheckIns = p.users, p.minCk, p.maxCk
	tcfg.Seed, tcfg.Parallelism, tcfg.Region = r.seed, 1, home
	wl, err := workload.Build(workload.Synthetic{Config: tcfg},
		workload.Config{Mode: workload.ModeTraveler, Seed: r.seed, Parallelism: 1, Region: home})
	if err != nil {
		return nil, fmt.Errorf("composing traveler workload: %w", err)
	}
	cover, cities, err := roamCoverage(home)
	if err != nil {
		return nil, err
	}
	d := &roamDeploy{wl: wl}
	nOps := p.nOpen*(1+boolInt(r.trace)) + p.nCap
	r.tracedOps = nOps
	d.ads = roamAdOps(r.seed, wl, home.BBox, cities, nOps)

	// Every nomadic request is charged to the privacy budget. It is set
	// so no user is refused even counting every request of the run on
	// one edge, i.e. cluster-wide.
	perUser := make([]int, len(wl.Streams))
	for i := range d.ads {
		perUser[d.ads[i].user]++
	}
	most := 0
	for _, n := range perUser {
		most = max(most, n)
	}
	base, mech, nomadic, err := defense(r.seed)
	if err != nil {
		return nil, err
	}
	d.mech, d.nomadic = mech, nomadic
	base.NomadicBudget = &geoind.Loss{Epsilon: float64(most + 1), Delta: 1e-3}
	d.cfg = edgecluster.Config{Engine: base, Coverage: cover, MergeRegion: home.BBox, Seed: r.seed}
	if d.cluster, err = edgecluster.New(d.cfg); err != nil {
		return nil, fmt.Errorf("building cluster: %w", err)
	}
	gw, err := edgecluster.NewGateway(d.cluster, func() time.Time { return roamServeAt })
	if err != nil {
		return nil, fmt.Errorf("building gateway: %w", err)
	}
	if d.gateway, err = serve(gw.Handler()); err != nil {
		return nil, err
	}
	var extent geo.BBox = home.BBox
	for _, b := range cities {
		extent = geo.BBox{MinX: math.Min(extent.MinX, b.MinX), MinY: math.Min(extent.MinY, b.MinY),
			MaxX: math.Max(extent.MaxX, b.MaxX), MaxY: math.Max(extent.MaxY, b.MaxY)}
	}
	network, err := adNetwork(r.seed, extent, p.campaigns, nOps+1)
	if err != nil {
		d.close()
		return nil, err
	}
	for _, n := range d.cluster.Nodes() {
		node, err := startNode(r, n.Engine, network, roamServeAt)
		if err != nil {
			d.close()
			return nil, err
		}
		d.nodes = append(d.nodes, node)
	}
	if d.ingest, err = dial(d.gateway.url, r.workers, nil); err != nil {
		d.close()
		return nil, err
	}
	later := tcfg.End.Sub(tcfg.Start)
	for i, st := range wl.Streams {
		d.ids = append(d.ids, st.User)
		items := make([]edge.ReportRequest, len(st.Events))
		fresh := make([]edge.ReportRequest, len(st.Events))
		for k, e := range st.Events {
			items[k] = edge.ReportRequest{UserID: e.AdID, Pos: e.Pos, Time: e.Time}
			fresh[k] = edge.ReportRequest{UserID: e.AdID, Pos: e.Pos, Time: e.Time.Add(later)}
		}
		d.batches = append(d.batches, chunk(i, items, p.batch)...)
		d.fresh = append(d.fresh, chunk(i, fresh, p.batch)...)
	}
	return d, nil
}

// roamAdOps draws the ad requests: a uniformly chosen user asks from
// one of its routine locations 30% of the time; otherwise from a random
// point of the home box (40%) or of one of the away cities.
func roamAdOps(seed uint64, wl *workload.Workload, home geo.BBox, cities []geo.BBox, n int) []adOp {
	rnd := randx.New(seed, streamAds)
	ops := make([]adOp, n)
	for i := range ops {
		u := rnd.IntN(len(wl.Streams))
		switch x := rnd.Float64(); {
		case x < 0.3:
			ops[i] = adOp{user: u, pos: weightedTop(rnd, wl.Dataset.Users[u].TrueTops).Add(rnd.GaussianPolar(5))}
		case x < 0.7:
			ops[i] = adOp{user: u, pos: uniformIn(rnd, home)}
		default:
			ops[i] = adOp{user: u, pos: uniformIn(rnd, cities[rnd.IntN(len(cities))])}
		}
	}
	return ops
}

func roamCluster(r *run) error {
	p := planRoamCluster(r.seconds)
	d, err := setupRepeated(r, func() (*roamDeploy, error) { return setupRoamCluster(r, p) })
	if err != nil {
		return err
	}
	defer d.close()
	// Check-ins go through the gateway, which rejects one no edge covers
	// (a failed report_batch op); ad requests are routed by the cluster.
	uncovered, err := routeAds(d)
	if err != nil {
		return err
	}
	r.check("no-uncovered-requests", uncovered == 0, fmt.Sprintf("the cluster routed %d ad positions to no edge", uncovered))

	// History ingest through the gateway, which routes each check-in to
	// the nearest covering edge. As in serve-hot, checkins_per_s is
	// sampled in the serving rounds only.
	r.phase()
	ingest(r, d.ingest, d.batches, 0, len(d.batches))

	// The cluster's profile round is a merge round: per-edge rebuilds
	// are disabled so a top is obfuscated once, at one edge, and
	// replicated. Its rate is this workload's rebuild_users_per_s.
	sorted := append([]string(nil), d.ids...)
	sort.Strings(sorted)
	dropped := 0
	for k := 0; k < rateChunks; k++ {
		lo, hi := span(0, len(sorted), k, rateChunks)
		r.phase()
		start := time.Now()
		for _, id := range sorted[lo:hi] {
			_, st, err := d.cluster.MergeProfilesStats(id, roamServeAt.Add(-time.Minute))
			if err != nil {
				return fmt.Errorf("profile merge for %s: %w", id, err)
			}
			dropped += st.Dropped
		}
		r.add("rebuild_users_per_s", float64(hi-lo)/time.Since(start).Seconds(), hi-lo)
	}
	r.note("merge_dropped_out_of_region", dropped)
	r.note("profile_round_delta_bytes", d.cluster.ReplStats().DeltaBytes)

	// The restart point: every edge as the profile round left it. All
	// restarts recover it, so every recover_s sample is the same work.
	point, err := checkpointCluster(d.nodes)
	if err != nil {
		return err
	}

	// Serving rounds: ads at the fixed rate and at capacity, each sent
	// to the edge covering its position; fresh check-ins through the
	// gateway; a merge round over the users they came from; and
	// restarts of every edge from the restart point.
	a, err := newAdRun(r, d.nodes, d.ads, d.ids, p.nOpen, p.nCap)
	if err != nil {
		return err
	}
	defer a.close()
	mg := newMerges()
	for k := 0; k < rateChunks; k++ {
		a.round(k, rateChunks)
		lo, hi := span(0, len(d.fresh), k, rateChunks)
		ingestChunk(r, d.ingest, d.fresh, lo, hi)
		ulo, uhi := span(0, len(d.ids), k, rateChunks)
		if err := mg.round(r, d.cluster, d.ids[ulo:uhi], roamServeAt.Add(time.Hour)); err != nil {
			return err
		}
		if err := restartCluster(r, d.nodes, point, k); err != nil {
			return err
		}
	}
	r.check("no-budget-denials", a.denied.Load() == 0, fmt.Sprintf("%d nomadic requests refused", a.denied.Load()))
	mg.report(r)
	a.finish()
	if r.trace {
		return layerBench(r, layerInputs{
			engine: d.nodes[0].engine, ds: d.wl.Dataset, mech: d.mech, nomadic: d.nomadic,
			batches: d.batches, ads: d.ads, ids: d.ids,
		})
	}
	return nil
}

// routeAds asks the cluster's own routing rule which edge serves each
// ad position: it reports every position, as one probe user, into a
// throwaway cluster built from the same configuration and sends the ad
// to the edge that took the report. It returns how many positions the
// cluster could route nowhere (those stay on edge 0).
func routeAds(d *roamDeploy) (int, error) {
	probe, err := edgecluster.New(d.cfg)
	if err != nil {
		return 0, fmt.Errorf("building probe cluster: %w", err)
	}
	defer func() {
		for _, n := range probe.Nodes() {
			_ = n.Engine.Close() // the probe holds nothing worth keeping
		}
	}()
	index := map[string]int{}
	for i, n := range d.cluster.Nodes() {
		index[n.ID] = i
	}
	uncovered := 0
	for i := range d.ads {
		id, err := probe.Report("probe", d.ads[i].pos, roamServeAt)
		switch {
		case errors.Is(err, edgecluster.ErrNoCoverage):
			uncovered++
		case err != nil:
			return 0, fmt.Errorf("routing ad %d: %w", i, err)
		default:
			d.ads[i].node = index[id]
		}
	}
	return uncovered, nil
}

// restartPoint is every edge's checkpoint, in memory (these edges keep
// no log), with the digest of the tables it holds.
type restartPoint struct {
	stores  []*memStore
	digests []uint64
}

// checkpointCluster takes the restart point of every edge.
func checkpointCluster(nodes []*edgeNode) (*restartPoint, error) {
	p := &restartPoint{stores: make([]*memStore, len(nodes)), digests: make([]uint64, len(nodes))}
	for i, n := range nodes {
		lsn, data, err := n.engine.Checkpoint()
		if err != nil {
			return nil, fmt.Errorf("checkpoint of edge %d: %w", i, err)
		}
		p.stores[i] = &memStore{ckpt: data}
		p.stores[i].lsn.Store(lsn)
		if p.digests[i], err = populationDigest(n.engine); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// restartCluster recovers every edge's checkpoint into a fresh engine
// restartsPerRound times; each recovered edge must hold exactly the
// tables it was checkpointed with. The summed Recover time of each
// cluster restart is one recover_s sample.
func restartCluster(r *run, nodes []*edgeNode, p *restartPoint, round int) error {
	for j := 0; j < restartsPerRound; j++ {
		var total time.Duration
		for i, n := range nodes {
			took, err := restartAndCompare(r, fmt.Sprintf("recovered-digest-%d-%d-edge-%d", round, j, i),
				p.digests[i], p.stores[i], n.engine.Config())
			if err != nil {
				return err
			}
			total += took
		}
		r.add("recover_s", total.Seconds(), len(nodes))
	}
	return nil
}
