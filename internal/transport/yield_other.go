//go:build !linux

package transport

// yieldThread is a no-op where sched_yield is not a system call we can make;
// see yield_linux.go for what it is for.
func yieldThread() {}
