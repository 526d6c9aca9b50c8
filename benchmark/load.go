package main

import (
	"slices"
	"sync"
	"syscall"
	"time"
)

// runFn runs operation i of a client's cycle (a pooled query, or the
// writer's next write), checks its answer and returns the rows delivered.
type runFn func(i int) (rows int64, err error)

// clientLog is what one client did: a latency in nanoseconds
// per operation, and the first failure.
type clientLog struct {
	lat          []int64
	rows, failed int64
	firstErr     error
}

// client is one goroutine of load. With every == 0 it is a closed loop:
// it sends its next operation when the previous one has been answered.
// With every > 0 it is paced: operation k is due at k*every, is sent then
// or as soon after as the previous one has been answered, and is timed
// from when it was due, so a stall counts against the operations it delays.
type client struct {
	run   runFn
	every time.Duration
}

func closed(fns ...runFn) []client {
	cs := make([]client, len(fns))
	for i, fn := range fns {
		cs[i].run = fn
	}
	return cs
}

// drive runs every client in its own goroutine for dur. Client c starts
// at a different place in the cycle. expect sizes the latency slices up
// front so the timed loop does not grow them.
func drive(clients []client, cycle int, dur time.Duration, expect int) (logs []clientLog, wall, cpu time.Duration) {
	logs = make([]clientLog, len(clients))
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c, cl := range clients {
		wg.Add(1)
		go func(log *clientLog, cl client, i int) {
			defer wg.Done()
			log.lat = make([]int64, 0, expect)
			t0 := time.Now()
			for k := 0; ; k++ {
				if cl.every > 0 {
					due := start.Add(time.Duration(k) * cl.every)
					time.Sleep(time.Until(due))
					t0 = due
				}
				rows, err := cl.run(i % cycle)
				t1 := time.Now()
				if t1.Sub(start) >= dur {
					return // an operation that ends after the phase is not counted
				}
				log.lat = append(log.lat, int64(t1.Sub(t0)))
				log.rows += rows
				if err != nil {
					log.failed++
					if log.firstErr == nil {
						log.firstErr = err
					}
				}
				t0 = t1
				i++
			}
		}(&logs[c], cl, c*cycle/len(clients))
	}
	wg.Wait()
	return logs, time.Since(start), cpuTime() - cpu0
}

// measure runs fns as closed-loop clients: a warm-up, whose rate sizes the
// latency slices, then the measured phase.
func measure(fns []runFn, cycle int, warm, dur time.Duration) (tally, time.Duration, time.Duration) {
	logs, wall, _ := drive(closed(fns...), cycle, warm, 1<<10)
	most := 0
	for _, l := range logs {
		most = max(most, len(l.lat))
	}
	logs, wall, cpu := drive(closed(fns...), cycle, dur, int(2*float64(most)/wall.Seconds()*dur.Seconds())+1<<10)
	return merge(logs), wall, cpu
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tally merges the logs of clients of one kind (the readers, or the writer).
type tally struct {
	lat               []int64 // sorted
	ops, rows, failed int64
	errs              []error // each client's first failure
}

func merge(logs []clientLog) tally {
	var t tally
	for _, l := range logs {
		t.lat = append(t.lat, l.lat...)
		t.rows += l.rows
		t.failed += l.failed
		if l.firstErr != nil {
			t.errs = append(t.errs, l.firstErr)
		}
	}
	t.ops = int64(len(t.lat))
	slices.Sort(t.lat)
	return t
}

// percentileUs reads the q-quantile of the latencies, in microseconds.
func (t tally) percentileUs(q float64) float64 {
	if len(t.lat) == 0 {
		return 0
	}
	i := min(max(int(q*float64(len(t.lat))+0.9999999)-1, 0), len(t.lat)-1)
	return float64(t.lat[i]) / 1e3
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
