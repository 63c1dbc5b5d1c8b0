package main

import (
	"testing"
	"time"
)

// A callee that stalls must be charged for every call that fell due during
// the stall: latency runs from the timetable, not from the send.
func TestOpenLoopChargesAStallToCallsDueDuringIt(t *testing.T) {
	const (
		n       = 100
		rate    = 1000.0 // one call per millisecond
		stallAt = 20
		stall   = 50 * time.Millisecond
	)
	tm, err := runOpen(n, rate, 1, func(i int) {
		if i == stallAt {
			time.Sleep(stall)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Call 40 was due 20ms into the stall, so it waited the remaining 30ms.
	// Allow 10ms of scheduling slack either way.
	for _, i := range []int{30, 40, 50} {
		waited := stall - time.Duration(i-stallAt)*time.Millisecond
		if got := tm.latency(i); got < waited-10*time.Millisecond || got > waited+10*time.Millisecond {
			t.Errorf("call %d: latency %v, want about %v", i, got, waited)
		}
		if got := tm.service(i); got > 5*time.Millisecond {
			t.Errorf("call %d: service time %v; the stall was not its own", i, got)
		}
		if got := tm.late(i); got < waited-10*time.Millisecond {
			t.Errorf("call %d: generator lateness %v, want about %v", i, got, waited)
		}
	}
	// Calls due before the stall, and well after the backlog cleared, were prompt.
	for _, i := range []int{5, 95} {
		if got := tm.latency(i); got > 10*time.Millisecond {
			t.Errorf("call %d: latency %v, want prompt", i, got)
		}
	}
}

func TestClosedLoopIssuesEveryCallOnce(t *testing.T) {
	seen := make([]int32, 1000)
	tm := runClosed(len(seen), 4, func(i int) { seen[i]++ })
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("call %d issued %d times", i, c)
		}
		if tm.due[i] != tm.sent[i] {
			t.Fatalf("call %d: a closed loop has no timetable, due %v != sent %v", i, tm.due[i], tm.sent[i])
		}
	}
}
