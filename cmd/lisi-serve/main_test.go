package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// announcer is run's stdout in the drain rows: it closes listening once
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

// addr is the announced listen address.
func (a *announcer) addr() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, rest, _ := strings.Cut(a.buf.String(), "lisi-serve listening on ")
	addr, _, _ := strings.Cut(rest, "\n")
	return addr
}

// serve starts run with args until ctx ends and waits for its listener.
// It returns the announced address and the channel the exit code
// arrives on; stderr may be read once the code has arrived.
func serve(t *testing.T, ctx context.Context, stderr *bytes.Buffer, args ...string) (string, <-chan int) {
	t.Helper()
	stdout := &announcer{listening: make(chan struct{})}
	code := make(chan int, 1)
	go func() { code <- run(ctx, args, stdout, stderr) }()
	select {
	case <-stdout.listening:
	case c := <-code:
		t.Fatalf("exit %d before listening\nstderr:\n%s", c, stderr)
	}
	return stdout.addr(), code
}

// TestExitCodes pins lisi-serve's contract: 2 a stray argument, 1 an
// address it cannot listen on, 0 a clean drain once the context ends
// with nothing in flight, and 1 a drain forced by -drain-timeout while
// a solve is still running.
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
		var stderr bytes.Buffer
		_, code := serve(t, ctx, &stderr, "-addr", "127.0.0.1:0")
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
	t.Run("forced drain", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var stderr bytes.Buffer
		addr, code := serve(t, ctx, &stderr,
			"-addr", "127.0.0.1:0", "-drain-timeout", "10ms", "-solve-timeout", "0")
		base := "http://" + addr

		// A solve that cannot finish before the drain aborts it: GMRES +
		// Jacobi to 1e-14 on a 40,000-unknown grid.
		body := `{"tenant": "acme", "backend": "petsc",
			"params": {"solver": "gmres", "preconditioner": "jacobi", "tol": "1e-14", "maxits": "1000000"},
			"operator": {"id": "slow", "version": 1, "grid_n": 200}}`
		replied := make(chan int, 1)
		go func() {
			resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(body))
			if err != nil {
				replied <- 0
				return
			}
			resp.Body.Close()
			replied <- resp.StatusCode
		}()
		for pending := int64(0); pending != 1; {
			select {
			case status := <-replied:
				t.Fatalf("the solve was answered %d before the drain began", status)
			default:
			}
			resp, err := http.Get(base + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			var st service.Stats
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			pending = st.Pending
		}
		cancel()
		if c := <-code; c != 1 {
			t.Fatalf("exit %d, want 1\nstderr:\n%s", c, &stderr)
		}
		if !strings.Contains(stderr.String(), "drain forced") {
			t.Errorf("stderr lacks the forced drain:\n%s", &stderr)
		}
		if status := <-replied; status < 500 {
			t.Errorf("the aborted solve was answered %d, want a typed 5xx", status)
		}
	})
}
