package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/geoind"
	"repro/internal/profile"
	"repro/internal/randx"
	"repro/internal/trace"
	"repro/internal/wire"
)

// layerInputs is the workload data the traced run times single layers
// on: the benchmark calls each layer's public functions directly.
type layerInputs struct {
	engine  *core.Engine
	ds      *trace.Dataset
	mech    *geoind.NFoldGaussian
	nomadic *geoind.PlanarLaplace
	batches []batch
	ads     []adOp
	ids     []string
}

// layerSamples bounds each direct-call measurement.
const layerSamples = 4000

// layerBench times the wire codec on the workload's own messages,
// Table III output selection through Engine.Request, profile building,
// both obfuscation mechanisms and the nomadic budget accountant.
func layerBench(r *run, in layerInputs) error {
	// Wire: encode and decode the workload's ReportBatch and ads
	// messages, ns per message.
	var msgs []wire.Message
	for i := 0; i < len(in.batches) && i < layerSamples/2; i++ {
		msgs = append(msgs, &wire.ReportBatchRequest{Reports: in.batches[i].items})
	}
	for i := 0; i < len(in.ads) && i < layerSamples/2; i++ {
		op := in.ads[i]
		msgs = append(msgs, &wire.AdsRequest{UserID: in.ids[op.user], Pos: op.pos, Limit: adLimit})
	}
	frames := make([][]byte, len(msgs))
	var buf []byte
	enc := newDist(5)
	for round := 0; round < 5; round++ {
		start := time.Now()
		for i, m := range msgs {
			buf = wire.Append(buf[:0], m)
			if round == 0 {
				frames[i] = append([]byte(nil), buf...)
			}
		}
		enc.add(float64(time.Since(start).Nanoseconds()) / float64(len(msgs)))
	}
	r.set("wire.encode_ns", enc.quantile(0.5), len(msgs)*5)
	dec := newDist(5)
	for round := 0; round < 5; round++ {
		start := time.Now()
		for i, m := range msgs {
			var err error
			switch m.(type) {
			case *wire.ReportBatchRequest:
				err = wire.Decode(frames[i], &wire.ReportBatchRequest{})
			default:
				err = wire.Decode(frames[i], &wire.AdsRequest{})
			}
			if err != nil {
				return fmt.Errorf("decoding message %d: %w", i, err)
			}
		}
		dec.add(float64(time.Since(start).Nanoseconds()) / float64(len(msgs)))
	}
	r.set("wire.decode_ns", dec.quantile(0.5), len(msgs)*5)

	// Table III: posterior output selection at a protected top.
	sel := newDist(layerSamples)
	for i := 0; i < len(in.ids) && sel.n() < layerSamples; i++ {
		tops, err := in.engine.TopLocations(in.ids[i])
		if err != nil || len(tops) == 0 {
			continue
		}
		for k := 0; k < 4; k++ {
			start := time.Now()
			_, fromTable, err := in.engine.Request(in.ids[i], tops[0].Loc)
			d := time.Since(start)
			if err != nil {
				return fmt.Errorf("selecting for %s: %w", in.ids[i], err)
			}
			if fromTable {
				sel.addDuration(d)
			}
		}
	}
	r.set("core.select_ns", sel.quantile(0.5), sel.n())

	// Profile building on the population's check-in histories.
	if in.ds != nil {
		build := newDist(len(in.ds.Users))
		for _, u := range in.ds.Users {
			pts := u.Points()
			start := time.Now()
			if _, err := profile.Build(pts, profile.DefaultConnectivityThreshold); err != nil {
				return fmt.Errorf("building profile for %s: %w", u.ID, err)
			}
			build.add(float64(time.Since(start).Nanoseconds()) / 1e3)
		}
		r.set("profile.build_us_per_user", build.quantile(0.5), build.n())
	}

	// The two mechanisms and the accountant, on the benchmark's own
	// PRNG stream.
	rnd := randx.New(r.seed, streamLayers)
	nfold, lap, acct := newDist(layerSamples), newDist(layerSamples), newDist(layerSamples)
	accountant, err := geoind.NewAccountant(1, 0)
	if err != nil {
		return err
	}
	budget := geoind.Loss{Epsilon: 1e9, Delta: 1}
	for i := 0; i < layerSamples; i++ {
		p := in.ads[i%len(in.ads)].pos
		start := time.Now()
		if _, err := in.mech.Obfuscate(rnd, p); err != nil {
			return err
		}
		nfold.add(float64(time.Since(start).Nanoseconds()) / 1e3)
		start = time.Now()
		if _, err := in.nomadic.Obfuscate(rnd, p); err != nil {
			return err
		}
		lap.add(float64(time.Since(start).Nanoseconds()) / 1e3)
		id := in.ids[in.ads[i%len(in.ads)].user]
		start = time.Now()
		if _, err := accountant.WouldExceed(id, budget, 1e-6); err != nil {
			return err
		}
		accountant.Record(id)
		acct.add(float64(time.Since(start).Nanoseconds()))
	}
	r.set("geoind.nfold_obfuscate_us", nfold.quantile(0.5), nfold.n())
	r.set("geoind.laplace_obfuscate_us", lap.quantile(0.5), lap.n())
	r.set("geoind.accountant_ns", acct.quantile(0.5), acct.n())
	return nil
}
