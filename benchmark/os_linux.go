package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// osYield gives the pacer's CPU to any other runnable thread. A pacer that
// only spins keeps its core for a whole scheduler slice (4 ms here), and a
// server thread woken onto that core waits the slice out; yielding on
// every spin bounds that wait to one system call.
func osYield() {
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) // cannot fail
}

// cpuMask is the kernel's affinity bitmap, wide enough for 1024 CPUs.
type cpuMask [16]uint64

// confine restricts every thread of the process to one CPU, the first it
// is allowed on, the way `taskset -c` would, and returns the function that
// lifts the restriction again. Threads the runtime starts meanwhile
// inherit the mask of the thread that starts them.
func confine() (release func(), err error) {
	var allowed cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", e)
	}
	var one cpuMask
	for i, word := range allowed {
		if word != 0 {
			one[i] = word & -word
			break
		}
	}
	if err := setAffinity(&one); err != nil {
		_ = setAffinity(&allowed) // best effort: some threads may already be confined
		return nil, err
	}
	return func() { _ = setAffinity(&allowed) }, nil // the mask was valid when read
}

// setAffinity applies mask to every thread of the process. It lists the
// threads until a pass finds none it has not set, so a thread started
// during a pass by one not yet set is caught by the next.
func setAffinity(mask *cpuMask) error {
	set := map[int]bool{}
	for {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := false
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || set[tid] {
				continue
			}
			set[tid], fresh = true, true
			// ESRCH: the thread exited since it was listed.
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*mask), uintptr(unsafe.Pointer(mask))); e != 0 && e != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity: %w", e)
			}
		}
		if !fresh {
			return nil
		}
	}
}
