package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"time"

	"repro/internal/adnet"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/randx"
	"repro/internal/tracing"
)

// defense returns the engine configuration of the paper's deployment:
// the 10-fold Gaussian mechanism (r = 500 m, ε = 1, δ = 0.01) for top
// locations and planar Laplace (ε = ln 4 at 200 m) for nomadic ones,
// the mechanisms cmd/loadgen and cmd/lbasim also serve.
func defense(seed uint64) (core.Config, *geoind.NFoldGaussian, *geoind.PlanarLaplace, error) {
	mech, err := geoind.NewNFoldGaussian(geoind.Params{Radius: 500, Epsilon: 1, Delta: 0.01, N: 10})
	if err != nil {
		return core.Config{}, nil, nil, fmt.Errorf("building n-fold mechanism: %w", err)
	}
	nomadic, err := geoind.NewPlanarLaplace(math.Log(4), 200)
	if err != nil {
		return core.Config{}, nil, nil, fmt.Errorf("building nomadic mechanism: %w", err)
	}
	return core.Config{Mechanism: mech, NomadicMechanism: nomadic, Seed: seed}, mech, nomadic, nil
}

// adNetwork registers campaigns spread uniformly over area, with radii
// of 5–25 km so a request matches a few dozen of them, and keeps the
// bid log (what the attacker observes) for at least logCap requests.
func adNetwork(seed uint64, area geo.BBox, campaigns, logCap int) (*adnet.Network, error) {
	nw, err := adnet.NewNetwork(nil, adnet.WithBidLogCap(logCap))
	if err != nil {
		return nil, fmt.Errorf("building ad network: %w", err)
	}
	rnd := randx.New(seed, streamCampaigns)
	for i := 0; i < campaigns; i++ {
		loc := geo.Point{X: area.MinX + rnd.Float64()*area.Width(), Y: area.MinY + rnd.Float64()*area.Height()}
		if err := nw.Register(adnet.Campaign{
			ID:       fmt.Sprintf("c%05d", i),
			Location: loc,
			Radius:   5000 + rnd.Float64()*20000,
			Ad:       adnet.Ad{ID: fmt.Sprintf("ad%05d", i), Title: fmt.Sprintf("Offer %d", i), Location: loc},
		}); err != nil {
			return nil, fmt.Errorf("registering campaign %d: %w", i, err)
		}
	}
	return nw, nil
}

// front serves one handler on a loopback listener.
type front struct {
	hs   *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*front, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	f := &front{hs: edge.NewHTTPServer(h), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { f.done <- f.hs.Serve(ln) }()
	return f, nil
}

// close shuts the server down and waits for its serve loop to return.
func (f *front) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := f.hs.Shutdown(ctx)
	if serr := <-f.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// conns are the generator's connections to one front: one client per
// worker, each over its own single-connection transport, so every user
// (always owned by the same worker) is pinned to one connection.
type conns struct {
	cl []*client.Client
	tr []*http.Transport
}

// dial builds the worker clients. Retries are off (one attempt per
// call), so a call that needed a retry shows up as a failure instead
// of passing as a success. A non-nil t times every sequenced request.
func dial(url string, workers int, t *opTimes) (*conns, error) {
	c := &conns{}
	for w := 0; w < workers; w++ {
		tr := &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			IdleConnTimeout:     time.Minute,
		}
		var rt http.RoundTripper = tr
		if t != nil {
			rt = &timedTransport{base: tr, t: t}
		}
		cl, err := client.New(url, &http.Client{Transport: rt, Timeout: 30 * time.Second},
			client.WithCodec(edge.CodecBinary), client.WithRetry(1, time.Millisecond, time.Millisecond))
		if err != nil {
			c.close()
			return nil, fmt.Errorf("building client: %w", err)
		}
		c.cl = append(c.cl, cl)
		c.tr = append(c.tr, tr)
	}
	return c, nil
}

func (c *conns) close() {
	for _, tr := range c.tr {
		tr.CloseIdleConnections()
	}
}

// edgeNode is one edge device's serving stack: its engine behind an
// untraced HTTP front and, in a traced run, a second front on the same
// engine with the server tracer and the timing wrappers installed.
type edgeNode struct {
	engine *core.Engine
	plain  *front
	// srv is the server created last; the engine reports its telemetry
	// into srv's registry.
	srv *edge.Server

	traced    *front
	tracedSrv *edge.Server
	times     *opTimes
}

// startNode brings up an edge node over engine. The edge clock is
// pinned just after the profile round: /v1/ads records an implicit
// check-in at server time, and a wall clock would leak run-varying
// timestamps into engine state. (The engines here belong to an
// edgecluster.Cluster, which turns the per-edge window rollover off, so
// the pin is not what keeps rollover rebuilds out of the timed phases.)
func startNode(r *run, engine *core.Engine, network *adnet.Network, now time.Time) (*edgeNode, error) {
	clk := func() time.Time { return now }
	n := &edgeNode{engine: engine}
	srv, err := edge.NewServer(engine, network, clk, nil, edge.WithTracer(nil))
	if err != nil {
		return nil, fmt.Errorf("building edge server: %w", err)
	}
	if n.plain, err = serve(srv.Handler()); err != nil {
		return nil, err
	}
	n.srv = srv
	if !r.trace {
		return n, nil
	}
	n.times = newOpTimes(r.tracedOps)
	prov := &timedProvider{base: network, t: n.times}
	tracer := tracing.New(r.seed, tracing.WithRingSize(r.tracedOps))
	tsrv, err := edge.NewServer(engine, prov, clk, nil, edge.WithTracer(tracer))
	if err != nil {
		n.close()
		return nil, fmt.Errorf("building traced edge server: %w", err)
	}
	if n.traced, err = serve(timedHandler(tsrv.Handler(), n.times)); err != nil {
		n.close()
		return nil, err
	}
	n.tracedSrv, n.srv = tsrv, tsrv
	return n, nil
}

// counter reads one of the engine's telemetry counters.
func (n *edgeNode) counter(name string) uint64 {
	return n.srv.Registry().Counter(name, "").Value()
}

func (n *edgeNode) close() {
	for _, f := range []*front{n.plain, n.traced} {
		if f != nil {
			if err := f.close(); err != nil {
				warnf("closing edge front: %v", err)
			}
		}
	}
}

// spansByTrace returns, for every trace the traced server recorded, the
// summed duration of its spans of one stage, keyed by trace ID. Span
// durations are recorded by the tracer in whole microseconds.
func (n *edgeNode) spansByTrace(stage string) (map[string]int64, *dist) {
	out := make(map[string]int64)
	all := newDist(0)
	if n.tracedSrv == nil {
		return out, all
	}
	for _, rec := range n.tracedSrv.Tracer().SlowestTraces(0) {
		for _, sp := range rec.Spans {
			if sp.Stage == stage {
				out[rec.TraceID] += sp.DurationUs
				all.add(float64(sp.DurationUs))
			}
		}
	}
	return out, all
}

// populationDigest folds every user's TableFingerprint, in sorted user
// order, into one value: equal digests mean equal obfuscation tables.
func populationDigest(e *core.Engine) (uint64, error) {
	ids := e.Users()
	sort.Strings(ids)
	fp := uint64(core.FingerprintSeed)
	for _, id := range ids {
		ufp, err := e.TableFingerprint(id)
		if err != nil {
			return 0, fmt.Errorf("fingerprinting %s: %w", id, err)
		}
		fp = randx.Mix64(fp ^ ufp)
	}
	return fp, nil
}
