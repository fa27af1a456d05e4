package main

// Timing wrappers around the public seams of each layer. They are the
// traced run's only instruments: the benchmark times its own calls into
// the client transport, the edge's http.Handler, the edge's AdProvider
// and the engine's durability sink, and never reaches inside a package.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/adnet"
	"repro/internal/core"
	"repro/internal/geo"
)

// seqHeader carries an op's sequence number from the client-side
// RoundTripper to the server-side handler wrapper, so both ends of one
// request land in the same slot.
const seqHeader = "Perfbench-Seq"

type seqKey struct{}

func withSeq(ctx context.Context, seq int) context.Context {
	return context.WithValue(ctx, seqKey{}, seq)
}

func seqFrom(ctx context.Context) (int, bool) {
	seq, ok := ctx.Value(seqKey{}).(int)
	return seq, ok
}

// opTimes is the per-op record of one traced phase, indexed by op
// sequence number. Durations are in ns, sizes in bytes.
type opTimes struct {
	roundTrip slots // request written → response body fully read
	handler   slots // edge http.Handler ServeHTTP
	provider  slots // AdProvider call
	reqBytes  slots
	respBytes slots
}

func newOpTimes(n int) *opTimes {
	return &opTimes{
		roundTrip: newSlots(n), handler: newSlots(n), provider: newSlots(n),
		reqBytes: newSlots(n), respBytes: newSlots(n),
	}
}

// timedTransport times each sequenced request from the moment it is
// handed to the transport until its response body has been read to the
// end, and counts the bytes each way. Requests without a sequence number
// in their context pass through untimed.
type timedTransport struct {
	base http.RoundTripper
	t    *opTimes
}

func (tt *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	seq, ok := seqFrom(req.Context())
	if !ok {
		return tt.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(seqHeader, strconv.Itoa(seq))
	start := time.Now()
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	tt.t.reqBytes.set(seq, req.ContentLength)
	resp.Body = &timedBody{ReadCloser: resp.Body, start: start, seq: seq, t: tt.t}
	return resp, nil
}

// timedBody ends the round trip when the body reaches EOF (or is closed
// early) and counts the bytes read.
type timedBody struct {
	io.ReadCloser
	start time.Time
	seq   int
	t     *opTimes
	n     int64
	done  bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *timedBody) finish() {
	if b.done {
		return
	}
	b.done = true
	b.t.roundTrip.set(b.seq, int64(time.Since(b.start)))
	b.t.respBytes.set(b.seq, b.n)
}

// timedHandler times the edge's whole handler (mux, telemetry and trace
// middleware, decode, engine, provider, encode) for sequenced requests,
// and passes the sequence number on in the request context so the
// provider wrapper can file its time under the same op.
func timedHandler(next http.Handler, t *opTimes) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, err := strconv.Atoi(r.Header.Get(seqHeader))
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		r = r.WithContext(withSeq(r.Context(), seq))
		start := time.Now()
		next.ServeHTTP(w, r)
		t.handler.set(seq, int64(time.Since(start)))
	})
}

// timedProvider wraps the ad network as an edge.ContextAdProvider: the
// edge hands it the request's context, which carries the op's sequence
// number.
type timedProvider struct {
	base *adnet.Network
	t    *opTimes
}

func (p *timedProvider) RequestAds(userID string, loc geo.Point, at time.Time, limit int) []adnet.Ad {
	return p.base.RequestAds(userID, loc, at, limit)
}

func (p *timedProvider) RequestAdsContext(ctx context.Context, userID string, loc geo.Point, at time.Time, limit int) []adnet.Ad {
	start := time.Now()
	ads := p.base.RequestAds(userID, loc, at, limit)
	if seq, ok := seqFrom(ctx); ok {
		p.t.provider.set(seq, int64(time.Since(start)))
	}
	return ads
}

// timedLog wraps the engine's durability sink: every Append is timed
// and its bytes counted, and a recovery's Replay is timed as a whole.
type timedLog struct {
	core.DurableStore
	appends     *concDist
	bytes       atomic.Int64
	replayNs    atomic.Int64
	replayRecs  atomic.Int64
	appendCount atomic.Int64
}

func newTimedLog(st core.DurableStore, capacity int) *timedLog {
	return &timedLog{DurableStore: st, appends: newConcDist(capacity)}
}

func (l *timedLog) Append(rec []byte) (uint64, error) {
	start := time.Now()
	lsn, err := l.DurableStore.Append(rec)
	l.appends.add(float64(time.Since(start)))
	l.bytes.Add(int64(len(rec)))
	l.appendCount.Add(1)
	return lsn, err
}

func (l *timedLog) Replay(from uint64, fn func(lsn uint64, rec []byte) error) error {
	start := time.Now()
	err := l.DurableStore.Replay(from, func(lsn uint64, rec []byte) error {
		l.replayRecs.Add(1)
		return fn(lsn, rec)
	})
	l.replayNs.Add(int64(time.Since(start)))
	return err
}

// memStore is a checkpoint-only core.DurableStore: the restart of an
// edge that keeps no write-ahead log and comes back from its last
// snapshot alone. Records appended after recovery are counted, not kept.
type memStore struct {
	lsn  atomic.Uint64
	ckpt []byte
}

func (m *memStore) Append([]byte) (uint64, error) { return m.lsn.Add(1) - 1, nil }

func (m *memStore) NextLSN() uint64 { return m.lsn.Load() }

func (m *memStore) LatestCheckpoint() (uint64, io.ReadCloser, bool, error) {
	return m.lsn.Load(), io.NopCloser(bytes.NewReader(m.ckpt)), true, nil
}

func (m *memStore) Replay(uint64, func(uint64, []byte) error) error { return nil }

// logPrefix is a read-only view of a write-ahead log that ends before
// LSN end: recovering from it restores the engine as it was when the
// log reached end, however far the live engine has written since, so
// every recovery from it does the same work.
type logPrefix struct {
	core.DurableStore
	end uint64
}

func (logPrefix) Append([]byte) (uint64, error) {
	return 0, errors.New("perfbench: appending to a read-only log view")
}

func (l logPrefix) NextLSN() uint64 { return l.end }

func (l logPrefix) Replay(from uint64, fn func(lsn uint64, rec []byte) error) error {
	return l.DurableStore.Replay(from, func(lsn uint64, rec []byte) error {
		if lsn >= l.end {
			return nil
		}
		return fn(lsn, rec)
	})
}
