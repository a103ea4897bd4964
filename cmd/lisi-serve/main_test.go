package main

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// announcer is run's stdout in the drain row: it closes listening once
// the "listening on" line has been written.
type announcer struct {
	mu        sync.Mutex
	buf       bytes.Buffer
	once      sync.Once
	listening chan struct{}
}

func (a *announcer) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n, err := a.buf.Write(p)
	if strings.Contains(a.buf.String(), "lisi-serve listening on ") {
		a.once.Do(func() { close(a.listening) })
	}
	return n, err
}

// TestExitCodes pins lisi-serve's contract: 2 a stray argument, 1 an
// address it cannot listen on, 0 a clean drain once the context ends
// with nothing in flight. TestServeBinary (internal/service) drives the
// real binary through a drain with a solve in flight.
func TestExitCodes(t *testing.T) {
	t.Run("stray argument", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), []string{"extra"}, &stdout, &stderr); code != 2 {
			t.Fatalf("exit %d, want 2\nstderr:\n%s", code, &stderr)
		}
		if !strings.Contains(stderr.String(), "unexpected arguments: [extra]") {
			t.Errorf("stderr lacks the stray argument:\n%s", &stderr)
		}
	})
	t.Run("cannot listen", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), []string{"-addr", "127.0.0.1:99999"}, &stdout, &stderr); code != 1 {
			t.Fatalf("exit %d, want 1\nstderr:\n%s", code, &stderr)
		}
		if stdout.Len() > 0 {
			t.Errorf("announced a listener it does not have:\n%s", &stdout)
		}
	})
	t.Run("clean drain", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		stdout := &announcer{listening: make(chan struct{})}
		var stderr bytes.Buffer
		code := make(chan int, 1)
		go func() { code <- run(ctx, []string{"-addr", "127.0.0.1:0"}, stdout, &stderr) }()
		select {
		case <-stdout.listening:
		case c := <-code:
			t.Fatalf("exit %d before listening\nstderr:\n%s", c, &stderr)
		case <-time.After(10 * time.Second):
			t.Fatal("never announced its listener")
		}
		cancel()
		select {
		case c := <-code:
			if c != 0 {
				t.Fatalf("exit %d, want 0\nstderr:\n%s", c, &stderr)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("did not drain within 10s of the context ending")
		}
		if !strings.Contains(stderr.String(), "drained cleanly") {
			t.Errorf("stderr lacks the clean drain:\n%s", &stderr)
		}
	})
}
