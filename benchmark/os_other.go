//go:build !linux

package main

import (
	"errors"
	"runtime"
)

// osYield falls back to a goroutine-level yield where sched_yield is not
// available.
func osYield() { runtime.Gosched() }

// confine is not available: the open loop then runs on every CPU, and the
// result row says so.
func confine() (release func(), err error) {
	return nil, errors.New("thread affinity is only implemented for linux")
}
