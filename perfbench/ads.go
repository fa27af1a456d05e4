package main

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/tracing"
)

// adLimit is the number of ads each request asks for.
const adLimit = 10

// openLoopRate is every workload's fixed open-loop ad rate, about a
// tenth of the closed-loop capacity on a 2-vCPU host. Each of the nproc
// connections then carries a request every 1.3 ms on average, so a
// request almost never waits behind the one before it on its
// connection, and a slow stretch of the host shows as the slowdown it
// is rather than as a queue. Over 60 rounds of serve-hot, a fifth of
// the 4000/s rounds read a p90 1.4–2.7 times the median round, while
// the 1500/s rounds run beside them read 0.7–1.3 times theirs. The
// price is a higher floor: the vCPUs halt between requests, and every
// request pays for waking them.
const openLoopRate = 1500

// adOp is one generated ad request: who asks, from where, and which
// edge node covers that position.
type adOp struct {
	user int
	pos  geo.Point
	node int
}

// adRun sends generated ad requests to the edge nodes that cover them
// and tallies what came back.
type adRun struct {
	r     *run
	nodes []*edgeNode
	ops   []adOp
	ids   []string
	plain []*conns
	// traced are the connections to each node's traced front (traced
	// runs only); call holds each traced op's client-observed time and
	// traceIDs the trace it opened, which the edge adopts.
	traced   []*conns
	call     slots
	traceIDs []string
	tracer   *tracing.Tracer

	nOpen, nCap int
	late        *dist

	count                            *opCount
	fromTable, fetched, kept, served atomic.Int64
	denied                           atomic.Int64
}

// newAdRun connects to the nodes. ops holds nOpen open-loop ops, then
// nCap closed-loop ops, then (traced runs) nOpen traced ops.
func newAdRun(r *run, nodes []*edgeNode, ops []adOp, ids []string, nOpen, nCap int) (*adRun, error) {
	a := &adRun{r: r, nodes: nodes, ops: ops, ids: ids, count: r.op("ads"),
		nOpen: nOpen, nCap: nCap, late: newDist(nOpen)}
	for _, n := range nodes {
		c, err := dial(n.plain.url, r.workers, nil)
		if err != nil {
			a.close()
			return nil, err
		}
		a.plain = append(a.plain, c)
		if r.trace {
			c, err := dial(n.traced.url, r.workers, n.times)
			if err != nil {
				a.close()
				return nil, err
			}
			a.traced = append(a.traced, c)
		}
	}
	if r.trace {
		a.call = newSlots(len(ops))
		a.traceIDs = make([]string, len(ops))
		a.tracer = tracing.New(r.seed^streamAds, tracing.WithRingSize(0))
	}
	return a, nil
}

func (a *adRun) close() {
	for _, c := range append(append([]*conns(nil), a.plain...), a.traced...) {
		c.close()
	}
}

// send issues op i from worker w. A transport error, an error status,
// a refused request (privacy budget exhausted) and a degraded response
// (provider timed out) all count as failed.
func (a *adRun) send(w, i int, traced bool) {
	op := a.ops[i]
	ctx := context.Background()
	cl := a.plain[op.node].cl[w]
	var start time.Time
	if traced {
		cl = a.traced[op.node].cl[w]
		var sp *tracing.Span
		ctx, sp = a.tracer.StartTrace(withSeq(ctx, i), "perfbench-ads")
		a.traceIDs[i] = sp.TraceID()
		defer sp.End()
		start = time.Now()
	}
	a.count.Attempted.Add(1)
	resp, err := cl.RequestAds(ctx, a.ids[op.user], op.pos, adLimit)
	if traced {
		a.call.set(i, int64(time.Since(start)))
	}
	if err == nil && resp.Degraded {
		err = fmt.Errorf("degraded response for %s", a.ids[op.user])
	}
	if err != nil {
		a.count.Failed.Add(1)
		if strings.Contains(err.Error(), "budget exhausted") {
			a.denied.Add(1)
		}
		return
	}
	a.served.Add(1)
	if resp.FromTable {
		a.fromTable.Add(1)
	}
	a.fetched.Add(int64(resp.Fetched))
	a.kept.Add(int64(len(resp.Ads)))
}

func (a *adRun) owner(lo int) func(int) int {
	return func(i int) int { return a.ops[lo+i].user }
}

// fixedRate sends ops [lo, hi) open-loop at openLoopRate per second.
func (a *adRun) fixedRate(lo, hi int, traced bool) loadResult {
	period := time.Second / openLoopRate
	return openLoop(wallClock{}, hi-lo, a.r.workers, period, a.owner(lo),
		func(w, i int) { a.send(w, lo+i, traced) })
}

// capacity sends ops [lo, hi) closed-loop, one connection per worker.
func (a *adRun) capacity(lo, hi int) loadResult {
	return closedLoop(wallClock{}, hi-lo, a.r.workers, a.owner(lo),
		func(w, i int) { a.send(w, lo+i, false) })
}

// subSamples is how many samples one serving round's slice of a
// metric yields: its ops split into consecutive parts, each giving one
// rate. More samples make the run's median steadier at no extra run
// time.
const subSamples = 4

// latencyPartOps is the size of the consecutive parts a round's
// open-loop ops are cut into, each giving one p50 and one p90 sample:
// large enough that a part's p90 has 20 ops above it, small enough
// (0.13 s at openLoopRate) that a host stall spoils few parts and the
// run's median of parts stays with the quiet ones.
const latencyPartOps = 200

// round runs serving round k of rounds: a slice of the open-loop ops at
// the fixed rate, then a slice of the closed-loop ops, each after a
// collection. Every slice yields several samples of its metrics, so
// the reported medians draw on every round of the run.
func (a *adRun) round(k, rounds int) {
	r := a.r
	lo, hi := span(0, a.nOpen, k, rounds)
	r.phase()
	res := a.fixedRate(lo, hi, false)
	parts := max(1, (hi-lo)/latencyPartOps)
	for s := 0; s < parts; s++ {
		slo, shi := span(0, hi-lo, s, parts)
		r.add("ads_p50_ms", quantileOf(res.lat[slo:shi], 0.5)/1e6, shi-slo)
		r.add("ads_p90_ms", quantileOf(res.lat[slo:shi], 0.9)/1e6, shi-slo)
	}
	for _, x := range res.late {
		a.late.add(x)
	}
	lo, hi = span(a.nOpen, a.nOpen+a.nCap, k, rounds)
	r.phase()
	for s := 0; s < subSamples; s++ {
		slo, shi := span(lo, hi, s, subSamples)
		res := a.capacity(slo, shi)
		r.add("ads_per_s", float64(shi-slo)/res.elapsed.Seconds(), shi-slo)
	}
}

// finish reports the ad path's per-layer numbers. In a traced run it
// first repeats the open-loop phase on the traced fronts (ops after
// the untraced ones) and splits each traced op across the layers.
func (a *adRun) finish() {
	r := a.r
	late := a.late
	r.note("ads_rate_per_s", openLoopRate)
	r.note("gen_late_p50_ms", late.quantile(0.5)/1e6)
	r.note("gen_late_max_ms", late.max()/1e6)
	if r.trace {
		lo, hi := a.nOpen+a.nCap, 2*a.nOpen+a.nCap
		var p50s []float64
		late = newDist(hi - lo)
		for k := 0; k < rateChunks; k++ {
			clo, chi := span(lo, hi, k, rateChunks)
			r.phase()
			res := a.fixedRate(clo, chi, true)
			p50s = append(p50s, quantileOf(res.lat, 0.5)/1e6)
			for _, x := range res.late {
				late.add(x)
			}
		}
		r.set("trace.overhead_ratio", median(p50s)/median(r.series["ads_p50_ms"]), hi-lo)
		a.layers(lo, hi)
	}
	r.set("gen.late_p50_ms", late.quantile(0.5)/1e6, late.n())
	r.set("gen.late_max_ms", late.max()/1e6, late.n())
	if ok := a.served.Load(); ok > 0 {
		r.set("core.table_hit_ratio", float64(a.fromTable.Load())/float64(ok), int(ok))
		r.set("core.nomadic_ratio", float64(ok-a.fromTable.Load())/float64(ok), int(ok))
		r.set("adnet.ads_fetched_per_request", float64(a.fetched.Load())/float64(ok), int(ok))
		if f := a.fetched.Load(); f > 0 {
			r.set("edge.ads_kept_ratio", float64(a.kept.Load())/float64(f), int(ok))
		}
	}
	r.set("geoind.budget_denied", float64(a.denied.Load()), int(a.count.Attempted.Load()))
}

// layers splits each traced op of [lo, hi) across the layers it
// crossed, pairing the client's, the transport's, the edge handler's,
// the provider's and the engine's spans of the same op.
func (a *adRun) layers(lo, hi int) {
	r := a.r
	n := hi - lo
	apply := make([]map[string]int64, len(a.nodes))
	applyAll := newDist(0)
	// The handler wrapper stores its time after the response is
	// written, so the client can finish an op a moment before it lands.
	deadline := time.Now().Add(2 * time.Second)
	for i := lo; i < hi && time.Now().Before(deadline); {
		if a.nodes[a.ops[i].node].times.handler.get(i) != 0 {
			i++
			continue
		}
		time.Sleep(time.Millisecond)
	}
	for k, node := range a.nodes {
		var all *dist
		apply[k], all = node.spansByTrace("apply")
		applyAll.merge(all)
	}
	call, codec, handler, transport, unacc, prov := newDist(n), newDist(n), newDist(n), newDist(n), newDist(n), newDist(n)
	reqB, respB := newDist(n), newDist(n)
	for i := lo; i < hi; i++ {
		op := a.ops[i]
		t := a.nodes[op.node].times
		c, rt, h, p := a.call.get(i), t.roundTrip.get(i), t.handler.get(i), t.provider.get(i)
		if c == 0 || rt == 0 {
			continue
		}
		call.add(float64(c) / 1e3)
		codec.add(float64(c-rt) / 1e3)
		reqB.add(float64(t.reqBytes.get(i)))
		respB.add(float64(t.respBytes.get(i)))
		if h == 0 {
			continue
		}
		handler.add(float64(h) / 1e3)
		transport.add(float64(rt-h) / 1e3)
		if p != 0 {
			prov.add(float64(p) / 1e3)
			unacc.add(float64(h-p)/1e3 - float64(apply[op.node][a.traceIDs[i]]))
		}
	}
	r.set("client.call_p50_us", call.quantile(0.5), call.n())
	r.set("client.codec_p50_us", codec.quantile(0.5), codec.n())
	r.set("edge.handler_p50_us", handler.quantile(0.5), handler.n())
	r.set("edge.transport_p50_us", transport.quantile(0.5), transport.n())
	r.set("edge.unaccounted_p50_us", unacc.quantile(0.5), unacc.n())
	r.set("adnet.provider_p50_us", prov.quantile(0.5), prov.n())
	r.set("core.apply_p50_us", applyAll.quantile(0.5), applyAll.n())
	r.set("wire.req_bytes", reqB.mean(), reqB.n())
	r.set("wire.resp_bytes", respB.mean(), respB.n())
}
