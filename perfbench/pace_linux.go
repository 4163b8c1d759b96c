//go:build linux && (amd64 || arm64)

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps with a timerfd registered with the Go netpoller. Go's own
// timers wake an idle process with millisecond granularity (the poller's
// epoll timeout is whole milliseconds), which would add up to 1 ms of
// generator lateness to every serve-mix request; a timerfd firing wakes the
// poller at once.
type pacer struct {
	fd int
	f  *os.File // the same descriptor, read through the netpoller
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	// A non-blocking descriptor makes os.NewFile return a pollable file.
	// Fd must not be called on it afterwards: that would make it blocking.
	return &pacer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks the calling goroutine for d without holding an OS thread.
func (p *pacer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	its := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)} // interval, then value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0,
		uintptr(unsafe.Pointer(&its)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }
