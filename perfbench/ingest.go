package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/edge"
)

// batch is one single-user binary ReportBatch call: a device flushing
// its buffered location fixes.
type batch struct {
	user  int
	items []edge.ReportRequest
}

// ingest sends batches [lo, hi) closed-loop, each user's batches in
// order on its own connection, and returns the check-ins acknowledged
// and the phase's wall time. A call that errors or rejects any item
// counts as failed.
func ingest(r *run, c *conns, batches []batch, lo, hi int) (int64, time.Duration) {
	count := r.op("report_batch")
	var acked atomic.Int64
	res := closedLoop(wallClock{}, hi-lo, r.workers,
		func(i int) int { return batches[lo+i].user },
		func(w, i int) {
			b := batches[lo+i]
			count.Attempted.Add(1)
			resp, err := c.cl[w].ReportBatch(context.Background(), b.items)
			if err == nil && len(resp.Errors) > 0 {
				err = fmt.Errorf("%d of %d check-ins rejected: %s", len(resp.Errors), len(b.items), resp.Errors[0].Error)
			}
			if err != nil {
				count.Failed.Add(1)
				return
			}
			acked.Add(int64(resp.Accepted))
		})
	return acked.Load(), res.elapsed
}

// chunk splits one user's check-ins into batches of at most size.
func chunk(user int, items []edge.ReportRequest, size int) []batch {
	var out []batch
	for lo := 0; lo < len(items); lo += size {
		out = append(out, batch{user: user, items: items[lo:min(lo+size, len(items))]})
	}
	return out
}
