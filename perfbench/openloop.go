package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// clock is the time source of the load generators; tests substitute a
// simulated one to check the schedule arithmetic exactly.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// SleepUntil blocks the thread in nanosleep rather than time.Sleep: an
// idle Go runtime waits for timers in epoll with millisecond
// granularity, which would make the generator send up to a millisecond
// late and bury sub-millisecond request latencies under its own
// lateness. nanosleep wakes within the kernel's timer slack (tens of µs).
func (wallClock) SleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d)
			return
		}
	}
}

// loadResult is what one generator phase measured.
type loadResult struct {
	// lat[i] is op i's latency in ns. In the open loop it runs from the
	// op's due time, not from when it was actually sent, so a stall also
	// charges the ops queued behind it.
	lat []float64
	// late[i] is how far behind its due time op i was sent (open loop
	// only): the generator's own health, reported next to the latency
	// it qualifies.
	late    []float64
	elapsed time.Duration
}

// partition assigns ops [0, n) to workers by owner, keeping each
// worker's ops in ascending order. Every op of one user has the same
// owner, so one user's requests always travel in order over one
// connection and the engine sees the same per-user sequence every run.
func partition(n, workers int, owner func(i int) int) [][]int {
	per := make([][]int, workers)
	for i := 0; i < n; i++ {
		w := owner(i) % workers
		per[w] = append(per[w], i)
	}
	return per
}

// openLoop sends op i at start + i·period whatever the state of earlier
// ops, from the worker that owns it. A worker that falls behind sends
// its next op at once; the op's latency still counts from its due time.
//
// Each worker keeps an OS thread of its own, as a client in another
// process would. Otherwise the client and the edge share the Go
// scheduler, and the thread that parks the waiting client goroutine
// sometimes picks up the edge's handler itself and sometimes leaves it
// to a thread woken on the other vCPU: per-request latency then takes
// one of two values about 0.1 ms apart, and a run's median followed
// the mix (cold-durable's 200-request p50s read 0.14–0.17 or 0.22–0.27
// ms, in every run, and runs' medians spread by a third).
func openLoop(clk clock, n, workers int, period time.Duration, owner func(i int) int, send func(w, i int)) loadResult {
	res := loadResult{lat: make([]float64, n), late: make([]float64, n)}
	// A short lead lets every worker reach its first sleep before op 0
	// is due.
	start := clk.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for w, ops := range partition(n, workers, owner) {
		wg.Add(1)
		go func(w int, ops []int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for _, i := range ops {
				due := start.Add(time.Duration(i) * period)
				clk.SleepUntil(due)
				sent := clk.Now()
				send(w, i)
				res.lat[i] = float64(clk.Now().Sub(due))
				res.late[i] = float64(sent.Sub(due))
			}
		}(w, ops)
	}
	wg.Wait()
	res.elapsed = clk.Now().Sub(start)
	return res
}

// closedLoop runs ops [0, n) back to back on each worker: a worker sends
// its next op only when the previous one has answered, so the phase
// measures capacity at `workers` connections.
func closedLoop(clk clock, n, workers int, owner func(i int) int, send func(w, i int)) loadResult {
	res := loadResult{lat: make([]float64, n)}
	start := clk.Now()
	var wg sync.WaitGroup
	for w, ops := range partition(n, workers, owner) {
		wg.Add(1)
		go func(w int, ops []int) {
			defer wg.Done()
			for _, i := range ops {
				t0 := clk.Now()
				send(w, i)
				res.lat[i] = float64(clk.Now().Sub(t0))
			}
		}(w, ops)
	}
	wg.Wait()
	res.elapsed = clk.Now().Sub(start)
	return res
}
