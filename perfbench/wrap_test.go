package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/adnet"
	"repro/internal/geo"
	"repro/internal/wal"
)

// The transport and handler wrappers file both ends of one sequenced
// request under the same slot; unsequenced requests pass untimed.
func TestTimedTransportAndHandler(t *testing.T) {
	times := newOpTimes(4)
	seqs := make(chan int, 4)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seq, ok := seqFrom(r.Context()); ok {
			seqs <- seq
		}
		time.Sleep(2 * time.Millisecond)
		io.WriteString(w, "hello, edge")
	})
	srv := httptest.NewServer(timedHandler(inner, times))
	defer srv.Close()
	cl := &http.Client{Transport: &timedTransport{base: http.DefaultTransport, t: times}}

	get := func(ctx context.Context) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL, strings.NewReader("ping"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := cl.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadAll(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	get(withSeq(context.Background(), 2))
	get(context.Background())

	close(seqs)
	var sawSeq []int
	for seq := range seqs {
		sawSeq = append(sawSeq, seq)
	}
	if len(sawSeq) != 1 || sawSeq[0] != 2 {
		t.Fatalf("handler saw sequence numbers %v, want [2]", sawSeq)
	}
	// The handler wrapper records once ServeHTTP has returned, which
	// can be just after the client has read the response.
	for deadline := time.Now().Add(5 * time.Second); times.handler.get(2) == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	h, rt := times.handler.get(2), times.roundTrip.get(2)
	if h < int64(2*time.Millisecond) || rt < h {
		t.Errorf("handler %v, round trip %v: want handler ≥ 2ms and round trip ≥ handler", time.Duration(h), time.Duration(rt))
	}
	if got := times.reqBytes.get(2); got != 4 {
		t.Errorf("request bytes %d, want 4", got)
	}
	if got := times.respBytes.get(2); got != int64(len("hello, edge")) {
		t.Errorf("response bytes %d, want %d", got, len("hello, edge"))
	}
	for _, seq := range []int{0, 1, 3} {
		if times.handler.get(seq) != 0 || times.roundTrip.get(seq) != 0 {
			t.Errorf("slot %d recorded without a request", seq)
		}
	}
}

// The provider wrapper times the call it was handed through the edge's
// context and returns the network's own answer.
func TestTimedProvider(t *testing.T) {
	nw, err := adnet.NewNetwork(nil)
	if err != nil {
		t.Fatal(err)
	}
	loc := geo.Point{X: 100, Y: 100}
	if err := nw.Register(adnet.Campaign{ID: "c", Location: loc, Radius: 5000, Ad: adnet.Ad{ID: "a", Location: loc}}); err != nil {
		t.Fatal(err)
	}
	times := newOpTimes(2)
	p := &timedProvider{base: nw, t: times}
	ads := p.RequestAdsContext(withSeq(context.Background(), 1), "u", loc, time.Unix(0, 0), 5)
	if len(ads) != 1 || ads[0].ID != "a" {
		t.Fatalf("ads = %+v", ads)
	}
	if times.provider.get(1) == 0 || times.provider.get(0) != 0 {
		t.Errorf("provider slots %d %d", times.provider.get(0), times.provider.get(1))
	}
	if nw.TotalLogged() != 1 {
		t.Errorf("logged %d bid records, want 1", nw.TotalLogged())
	}
	if got := p.RequestAds("u", loc, time.Unix(0, 0), 5); len(got) != 1 {
		t.Errorf("plain RequestAds = %+v", got)
	}
}

// The log wrapper times and sizes every append and counts the records
// a replay visits, without changing what the store holds.
func TestTimedLog(t *testing.T) {
	st, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	l := newTimedLog(st, 8)
	for _, rec := range []string{"a", "bb", "ccc"} {
		if _, err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if l.bytes.Load() != 6 || l.appendCount.Load() != 3 || l.appends.snapshot().n() != 3 {
		t.Fatalf("bytes=%d appends=%d samples=%d", l.bytes.Load(), l.appendCount.Load(), l.appends.snapshot().n())
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := l.Replay(0, func(_ uint64, rec []byte) error {
		got = append(got, string(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "a,bb,ccc" || l.replayRecs.Load() != 3 || l.replayNs.Load() <= 0 {
		t.Fatalf("replayed %v, counted %d in %dns", got, l.replayRecs.Load(), l.replayNs.Load())
	}
}

// A log prefix replays only the records appended before its end, however
// many follow, and refuses appends: recovering from it always restores
// the same state.
func TestLogPrefixEndsReplay(t *testing.T) {
	st, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, rec := range []string{"a", "bb"} {
		if _, err := st.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	view := logPrefix{DurableStore: st, end: st.NextLSN()}
	if _, err := st.Append([]byte("ccc")); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := view.Replay(0, func(_ uint64, rec []byte) error {
		got = append(got, string(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "a,bb" || view.NextLSN() != view.end {
		t.Fatalf("replayed %v, next LSN %d", got, view.NextLSN())
	}
	if _, err := view.Append([]byte("d")); err == nil {
		t.Fatal("appended to a read-only view")
	}
}

func TestMemStoreServesCheckpoint(t *testing.T) {
	m := &memStore{ckpt: []byte("snapshot")}
	m.lsn.Store(7)
	lsn, r, ok, err := m.LatestCheckpoint()
	if err != nil || !ok || lsn != 7 {
		t.Fatalf("lsn=%d ok=%v err=%v", lsn, ok, err)
	}
	data, _ := io.ReadAll(r)
	if string(data) != "snapshot" {
		t.Fatalf("checkpoint = %q", data)
	}
	if next, _ := m.Append([]byte("x")); next != 7 || m.NextLSN() != 8 {
		t.Fatalf("append lsn %d, next %d", next, m.NextLSN())
	}
}
