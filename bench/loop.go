package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// timing holds, for each call of a phase, when it was due, when a worker
// picked it up and when it completed, all as offsets from the phase start.
// A closed loop has no timetable: due equals sent there.
type timing struct {
	due, sent, done []time.Duration
	wall            time.Duration // phase start to last completion
}

// latency is what a user waited: completion minus the scheduled arrival,
// so a stall is charged to every call that fell due during it.
func (t *timing) latency(i int) time.Duration { return t.done[i] - t.due[i] }

// service is completion minus the actual send.
func (t *timing) service(i int) time.Duration { return t.done[i] - t.sent[i] }

// late is how far behind its timetable the generator sent the call.
func (t *timing) late(i int) time.Duration { return t.sent[i] - t.due[i] }

func newTiming(n int) *timing {
	return &timing{due: make([]time.Duration, n), sent: make([]time.Duration, n), done: make([]time.Duration, n)}
}

// ticker is a periodic Linux timerfd read through the runtime's network
// poller. time.Sleep cannot pace an open loop on a mostly idle process: a
// parked scheduler rounds sub-millisecond sleeps up to a millisecond, so
// the less the program under test has to do, the later its requests are
// sent (the sizing probe saw p50 latency double when the rate was halved).
// A timerfd wakes the dispatcher the way a socket does, at kernel timer
// precision, without spinning.
type ticker struct{ f *os.File }

func newTicker(period time.Duration) (*ticker, error) {
	const (
		clockMonotonic = 1
		tfdNonblock    = 0x800
		tfdCloexec     = 0x80000
	)
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	f := os.NewFile(fd, "timerfd")
	ts := syscall.NsecToTimespec(int64(period))
	spec := [2]syscall.Timespec{ts, ts} // struct itimerspec: interval, first expiry
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		f.Close()
		return nil, fmt.Errorf("timerfd_settime: %w", errno)
	}
	return &ticker{f: f}, nil
}

// wait blocks until the timer has expired at least once since the last wait.
func (t *ticker) wait() error {
	var expirations [8]byte
	_, err := t.f.Read(expirations[:])
	return err
}

func (t *ticker) close() { t.f.Close() }

// runOpen offers n calls on a fixed timetable, call i due at i/rate after
// the start, whatever the callee does. One dispatcher sleeps on a ticker of
// that period and on waking releases every call already due; it never
// spin-waits, because on two cores a spinning dispatcher starves the
// network poller. The channel holds the whole timetable, so a slow callee
// delays the workers, never the dispatcher.
func runOpen(n int, rate float64, workers int, call func(i int)) (*timing, error) {
	t := newTiming(n)
	if n == 0 {
		return t, nil
	}
	for i := range t.due {
		t.due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	tick, err := newTicker(time.Duration(float64(time.Second) / rate))
	if err != nil {
		return nil, err
	}
	defer tick.close()
	released := make(chan int, n)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range released {
				t.sent[i] = time.Since(start)
				call(i)
				t.done[i] = time.Since(start)
			}
		}()
	}
	for next := 0; next < n && err == nil; {
		now := time.Since(start)
		for next < n && t.due[next] <= now {
			released <- next
			next++
		}
		if next < n {
			err = tick.wait()
		}
	}
	close(released)
	wg.Wait()
	t.wall = time.Since(start)
	return t, err
}

// runClosed has each of `callers` goroutines issue its next call as soon as
// its previous one completes, until n calls are done.
func runClosed(n, callers int, call func(i int)) *timing {
	t := newTiming(n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t.sent[i] = time.Since(start)
				t.due[i] = t.sent[i]
				call(i)
				t.done[i] = time.Since(start)
			}
		}()
	}
	wg.Wait()
	t.wall = time.Since(start)
	return t
}
