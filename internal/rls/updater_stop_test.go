package rls

import (
	"errors"
	"testing"
	"time"

	"mcs/internal/bloom"
)

// A failed initial push must leave the updater in a state where Stop is a
// safe no-op (regression test: Stop used to block forever here).
func TestUpdaterStopAfterFailedStart(t *testing.T) {
	u := &Updater{
		LRC: NewLRC("x"), TTL: time.Minute,
		Push: func(string, []string, *bloom.Filter, time.Duration) error {
			return errors.New("index unreachable")
		},
	}
	if err := u.Start(); err == nil {
		t.Fatal("Start with failing push succeeded")
	}
	done := make(chan struct{})
	go func() {
		u.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop blocked after failed Start")
	}
}

func TestUpdaterDoubleStop(t *testing.T) {
	u := &Updater{
		LRC: NewLRC("x"), TTL: time.Minute, Interval: time.Hour,
		Push: func(string, []string, *bloom.Filter, time.Duration) error { return nil },
	}
	if err := u.Start(); err != nil {
		t.Fatal(err)
	}
	u.Stop()
	u.Stop() // must not panic or block
}
