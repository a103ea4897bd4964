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
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address (use :0 for an ephemeral port)")
		procs      = flag.Int("procs", 1, "default SPMD world size for requests that omit procs")
		maxProcs   = flag.Int("max-procs", 8, "largest world size a request may ask for")
		workers    = flag.Int("workers", 1, "default intra-rank worker-pool size for requests that omit workers")
		maxWorkers = flag.Int("max-workers", 16, "largest intra-rank worker count a request may ask for")
		sessions   = flag.Int("max-sessions", 64, "pooled session cap (LRU-evicted beyond it)")
		queue      = flag.Int("queue-depth", 32, "per-session queue depth before queue_full shedding")
		pending    = flag.Int("max-pending", 1024, "server-wide pending request cap before overloaded shedding")
		tenantCap  = flag.Int("tenant-max-pending", 128, "per-tenant pending request quota")
		batchRHS   = flag.Int("max-batch-rhs", 8, "max combined right-hand sides per coalesced solve (1 disables batching)")
		maxNRHS    = flag.Int("max-nrhs", 16, "max right-hand sides in one request")
		maxN       = flag.Int("max-unknowns", 1<<21, "max global system dimension")
		maxBody    = flag.Int64("max-body-bytes", 64<<20, "max request body size")
		solveTO    = flag.Duration("solve-timeout", time.Minute, "per-solve deadline (0 disables)")
		backoff    = flag.Duration("retry-backoff", 0, "initial backoff between solve retries")
		drainTO    = flag.Duration("drain-timeout", time.Minute, "max wait for in-flight solves on shutdown")
		enableFI   = flag.Bool("enable-fault-injection", false,
			"honor fault specs in requests and -fault-spec (requires a -tags faultinject build; chaos testing only)")
		faultSpec = flag.String("fault-spec", "", "server-level fault schedule armed on every pooled session (fault.ParseSpec syntax)")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("lisi-serve: ")
	if flag.NArg() > 0 {
		log.Printf("unexpected arguments: %v", flag.Args())
		flag.Usage()
		os.Exit(2)
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
		RetryBackoff:         *backoff,
		DrainTimeout:         *drainTO,
		EnableFaultInjection: *enableFI,
		FaultSpec:            *faultSpec,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// Announced on stdout (not the log) so harnesses can parse the
	// ephemeral port from -addr :0.
	fmt.Printf("lisi-serve listening on %s\n", ln.Addr())
	srv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("received %s; draining (timeout %s)", sig, *drainTO)
	case err := <-serveErr:
		log.Fatalf("serve: %v", err)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	forced := svc.Drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	_ = srv.Shutdown(shutCtx)
	if forced != nil {
		log.Printf("drain forced after %s: %v", *drainTO, forced)
		os.Exit(1)
	}
	log.Printf("drained cleanly")
}
