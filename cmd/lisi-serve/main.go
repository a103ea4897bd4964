// Command lisi-serve runs the solver-as-a-service front end: an HTTP
// server over the LISI registry/Session layer with pooled per-operator
// sessions, admission control, per-tenant quotas, multi-RHS batching,
// and graceful drain on SIGTERM/SIGINT (in-flight solves finish under
// their timeout, new requests are shed with typed 503s, then exit 0).
// See docs/SERVICE.md for the API.
//
// The listen address is announced on stdout as
// "lisi-serve listening on <addr>" so harnesses can use -addr :0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole command: it parses args, serves until ctx ends, then
// drains, and returns the exit status: 0 drained cleanly, 1 a server
// that could not start or a drain that had to be forced, 2 bad flags.
// The listen address is announced on stdout, diagnostics go to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lisi-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8080", "HTTP listen address (use :0 for an ephemeral port)")
		procs      = fs.Int("procs", 1, "default SPMD world size for requests that omit procs")
		maxProcs   = fs.Int("max-procs", 8, "largest world size a request may ask for")
		workers    = fs.Int("workers", 1, "default intra-rank worker-pool size for requests that omit workers")
		maxWorkers = fs.Int("max-workers", 16, "largest intra-rank worker count a request may ask for")
		sessions   = fs.Int("max-sessions", 64, "pooled session cap (LRU-evicted beyond it)")
		queue      = fs.Int("queue-depth", 32, "per-session queue depth before queue_full shedding")
		pending    = fs.Int("max-pending", 1024, "server-wide pending request cap before overloaded shedding")
		tenantCap  = fs.Int("tenant-max-pending", 128, "per-tenant pending request quota")
		batchRHS   = fs.Int("max-batch-rhs", 8, "max combined right-hand sides per coalesced solve (1 disables batching)")
		maxNRHS    = fs.Int("max-nrhs", 16, "max right-hand sides in one request")
		maxN       = fs.Int("max-unknowns", 1<<21, "max global system dimension")
		maxBody    = fs.Int64("max-body-bytes", 64<<20, "max request body size")
		solveTO    = fs.Duration("solve-timeout", time.Minute, "per-solve deadline (0 disables)")
		drainTO    = fs.Duration("drain-timeout", time.Minute, "max wait for in-flight solves on shutdown")
		enableFI   = fs.Bool("enable-fault-injection", false,
			"honor fault specs in requests and -fault-spec (requires a -tags faultinject build; chaos testing only)")
		faultSpec = fs.String("fault-spec", "", "server-level fault schedule armed on every pooled session (fault.ParseSpec syntax)")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	logger := log.New(stderr, "lisi-serve: ", 0)
	if fs.NArg() > 0 {
		logger.Printf("unexpected arguments: %v", fs.Args())
		fs.Usage()
		return 2
	}

	svc, err := service.New(service.Config{
		DefaultProcs:         *procs,
		MaxProcs:             *maxProcs,
		DefaultWorkers:       *workers,
		MaxWorkers:           *maxWorkers,
		MaxSessions:          *sessions,
		QueueDepth:           *queue,
		MaxPending:           *pending,
		TenantMaxPending:     *tenantCap,
		MaxBatchRHS:          *batchRHS,
		MaxNRHS:              *maxNRHS,
		MaxUnknowns:          *maxN,
		MaxBodyBytes:         *maxBody,
		SolveTimeout:         *solveTO,
		DrainTimeout:         *drainTO,
		EnableFaultInjection: *enableFI,
		FaultSpec:            *faultSpec,
	})
	if err != nil {
		logger.Print(err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		svc.Close()
		logger.Print(err)
		return 1
	}
	// Announced on stdout (not the log) so harnesses can parse the
	// ephemeral port from -addr :0.
	fmt.Fprintf(stdout, "lisi-serve listening on %s\n", ln.Addr())
	srv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		logger.Printf("shutting down; draining (timeout %s)", *drainTO)
	case err := <-serveErr:
		svc.Close()
		logger.Printf("serve: %v", err)
		return 1
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	forced := svc.Drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	_ = srv.Shutdown(shutCtx)
	if forced != nil {
		logger.Printf("drain forced after %s: %v", *drainTO, forced)
		return 1
	}
	logger.Printf("drained cleanly")
	return 0
}
