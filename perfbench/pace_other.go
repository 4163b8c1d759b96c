//go:build !(linux && (amd64 || arm64))

package main

import "time"

// pacer falls back to Go's timers where no timerfd is available; they may
// wake up to a millisecond late on an idle process.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (p *pacer) sleep(d time.Duration) error {
	time.Sleep(d)
	return nil
}

func (p *pacer) close() error { return nil }
