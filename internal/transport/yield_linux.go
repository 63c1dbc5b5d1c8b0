package transport

import "syscall"

// yieldThread gives the rest of the calling thread's time slice to whatever
// else is runnable on its processor. A server sender calls it after it has
// flushed and released the connection's write lock.
//
// A socket write to a peer on the same host wakes the peer's poller with the
// kernel's "sync" hint — the writer is about to sleep, so run the woken
// thread where the writer is — but a Go thread does not sleep while any
// goroutine is runnable, and a kernel that does not preempt on wake-up
// (PREEMPT_NONE; EEVDF lets the running thread finish a slice that only the
// 250 Hz tick checks) then leaves one of the two queued behind the other for
// up to 4 ms, with whatever it was running: one request, or a connection's
// reader or write lock and every request behind it. On the two-core
// reference box 1-3 % of point_tcp's open-loop requests waited 1-4 ms this
// way, unless the Go runtime's monitor thread was in its 20 us polling state
// (each of its wake-ups is a rescheduling point), which it is or is not for
// seconds at a time: discover_win_p99_us read 1.0 or 3.8 ms from run to run.
// The sender has nothing left to do for its request, so it is the one thread
// that can give way at no cost to a caller; with it point_tcp reads
// 0.62-0.68 ms in every run. The client's writer must not do the same: it is
// its connection's only writer, and when the kernel makes a yielder wait out
// a neighbour's slice every request queued behind it waits too
// (range_mix_tcp: 9 ms).
func yieldThread() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
