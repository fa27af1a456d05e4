package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is simulated time: sleeping jumps the clock forward, and a
// send advances it by a fixed service time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// A server slower than the schedule builds a queue: each op waits for
// the ones before it, and its latency counts from its due time, not
// from when the stalled generator finally sent it.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	const period, service = time.Millisecond, 3 * time.Millisecond
	res := openLoop(clk, 5, 1, period, func(int) int { return 0 }, func(_, _ int) { clk.advance(service) })
	// Op i is due at i ms and sent when op i-1 ends, at 3i ms: it is
	// 2i ms late and completes at 3(i+1) ms, 2i+3 ms after it was due.
	lat, late := res.lat, res.late
	for i := 0; i < 5; i++ {
		if want := float64(time.Duration(2*i+3) * time.Millisecond); lat[i] != want {
			t.Errorf("op %d latency %v, want %v", i, time.Duration(lat[i]), time.Duration(want))
		}
		if want := float64(time.Duration(2*i) * time.Millisecond); late[i] != want {
			t.Errorf("op %d lateness %v, want %v", i, time.Duration(late[i]), time.Duration(want))
		}
	}
}

// A server faster than the schedule: every op is sent on time and its
// latency is the service time alone.
func TestOpenLoopOnSchedule(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	res := openLoop(clk, 4, 1, 10*time.Millisecond, func(int) int { return 0 }, func(_, _ int) { clk.advance(time.Millisecond) })
	for i := range res.lat {
		if res.lat[i] != float64(time.Millisecond) || res.late[i] != 0 {
			t.Errorf("op %d latency %v late %v", i, time.Duration(res.lat[i]), time.Duration(res.late[i]))
		}
	}
	// The phase ends when the last op (due at 30 ms) completes.
	if want := 31 * time.Millisecond; res.elapsed != want {
		t.Errorf("elapsed %v, want %v", res.elapsed, want)
	}
}

// The closed loop sends each worker's next op as soon as the last one
// answers, so its elapsed time is the sum of the service times.
func TestClosedLoopBackToBack(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	res := closedLoop(clk, 6, 1, func(i int) int { return i }, func(_, _ int) { clk.advance(2 * time.Millisecond) })
	if len(res.lat) != 6 || res.elapsed != 12*time.Millisecond || quantileOf(res.lat, 1) != float64(2*time.Millisecond) {
		t.Fatalf("n=%d elapsed=%v max=%v", len(res.lat), res.elapsed, time.Duration(quantileOf(res.lat, 1)))
	}
}

// Every op of one user lands on the same worker, in ascending order.
func TestPartitionPinsUsers(t *testing.T) {
	users := []int{3, 1, 3, 2, 1, 3, 0}
	per := partition(len(users), 2, func(i int) int { return users[i] })
	seen := map[int]int{}
	for w, ops := range per {
		for k, i := range ops {
			if k > 0 && ops[k-1] >= i {
				t.Errorf("worker %d ops out of order: %v", w, ops)
			}
			if prev, ok := seen[users[i]]; ok && prev != w {
				t.Errorf("user %d on workers %d and %d", users[i], prev, w)
			}
			seen[users[i]] = w
		}
	}
}

func TestWallClockSleepsUntil(t *testing.T) {
	start := time.Now()
	due := start.Add(3 * time.Millisecond)
	wallClock{}.SleepUntil(due)
	if now := time.Now(); now.Before(due) {
		t.Fatalf("woke %v early", due.Sub(now))
	}
	wallClock{}.SleepUntil(start) // in the past: returns at once
}
