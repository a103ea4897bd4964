// Package comm provides an in-process message-passing runtime that plays the
// role MPI plays in the CCA-LISI paper: an SPMD world of ranks that share no
// mutable memory and interact only through typed point-to-point messages and
// collectives.
//
// Each rank is a goroutine. Message payloads are copied on send, so the
// runtime preserves distributed-memory semantics: a rank can never observe
// another rank's writes except through an explicit message. Collective
// operations follow the MPI contract — every rank of a World must call the
// same sequence of collectives, each with compatible arguments.
//
// The package is intentionally shaped like a small MPI subset — ranks, tags,
// Send/Recv of []float64 and []int (plain, pooled and into a caller's
// buffer), Barrier, and the collectives a solver above it calls:
// AllReduce (float64, int, []float64 in place), AllGather (int, []int, and
// the concatenating V forms), Bcast (int, string, []float64, and into a
// buffer), GatherV and ScatterV — so that the solver substrates built on
// top of it exercise the same code paths a cluster implementation would.
// Every collective posts through one mechanism, the typed per-rank slots
// between two barriers.
//
// # Cancellation
//
// A world stops one way: it is aborted. Abort (or AbortCause, which also
// records why) poisons the world, and every rank blocked in — or about to
// enter — a communication call panics with ErrAborted; Run recovers those
// panics and reports the recorded cause. A context reaches the world only
// through AbortOn, a watcher that calls AbortCause with context.Cause(ctx)
// when ctx ends; RunContext is AbortOn around Run. This mirrors MPI_Abort
// semantics: cancellation is world-fatal, so one rank's deadline can never
// leave its peers deadlocked in a barrier or collective the cancelled rank
// will never join.
package comm

import (
	"context"
	"fmt"
	"sync"
)

// AnySource matches messages from any sending rank in Recv.
const AnySource = -1

// AnyTag matches messages with any tag in Recv.
const AnyTag = -1

// World is a fixed-size set of communicating ranks. Create one with
// NewWorld and execute an SPMD region with Run or RunContext.
type World struct {
	size  int
	mail  []*mailbox
	bar   *barrier
	slots []collSlot // per-rank typed posting slots for the collectives
	red   [][]float64
	stats []rankStats
	abort chan struct{}
	once  sync.Once

	// pool recycles point-to-point payload buffers (SendFloat64sPooled /
	// RecvFloat64sInto). Shared by all ranks: buffers cross rank
	// boundaries by design.
	pool sync.Pool

	// fault is the optional injection state installed by SetFaultHook
	// (nil in production: the fast paths pay one nil check).
	fault *faultRuntime

	// causeMu guards cause, the first error recorded by AbortCause (nil
	// for a plain Abort).
	causeMu sync.Mutex
	cause   error
}

// NewWorld creates a world with the given number of ranks. size must be
// at least 1.
func NewWorld(size int) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("comm: world size must be >= 1, got %d", size)
	}
	w := &World{
		size:  size,
		mail:  make([]*mailbox, size),
		slots: make([]collSlot, size),
		red:   make([][]float64, size),
		stats: make([]rankStats, size),
		abort: make(chan struct{}),
	}
	for i := range w.mail {
		w.mail[i] = newMailbox(w.abort)
	}
	w.bar = newBarrier(size, w.abort)
	return w, nil
}

// collSlot is one rank's typed posting slot for the collectives: scalar
// and slice contributions are posted into the typed field, so nothing is
// boxed. Padded so adjacent ranks' slots do not share a cache line.
type collSlot struct {
	f   float64
	i   int
	fs  []float64
	is  []int
	fss [][]float64
	_   [64]byte
}

// pooledBuf is a recyclable point-to-point payload. It is a pointer-sized
// pool element (a *pooledBuf stored in an `any` does not allocate on the
// Get/Put round trip, unlike a bare []float64 header).
type pooledBuf struct{ f []float64 }

// getBuf draws a payload buffer of length n from the pool, allocating (and
// counting a pool miss on st) only when the pool is empty or the recycled
// buffer is too small.
func (w *World) getBuf(n int, st *rankStats) *pooledBuf {
	pb, _ := w.pool.Get().(*pooledBuf)
	if pb == nil {
		st.poolAllocs.Add(1)
		return &pooledBuf{f: make([]float64, n)}
	}
	if cap(pb.f) < n {
		st.poolAllocs.Add(1)
		pb.f = make([]float64, n)
	}
	pb.f = pb.f[:n]
	return pb
}

// putBuf returns a payload buffer to the pool and counts the recycle.
func (w *World) putBuf(pb *pooledBuf, st *rankStats) {
	st.poolRecycled.Add(1)
	w.pool.Put(pb)
}

// redScratch returns rank's private reduction scratch of length n, grown
// on demand and reused across collectives.
func (w *World) redScratch(rank, n int) []float64 {
	if cap(w.red[rank]) < n {
		w.red[rank] = make([]float64, n)
	}
	w.red[rank] = w.red[rank][:n]
	return w.red[rank]
}

// Abort poisons the world: every blocked or future communication call
// panics with ErrAborted. Run recovers those panics. Abort is safe to
// call multiple times and from any goroutine.
func (w *World) Abort() {
	w.once.Do(func() { close(w.abort) })
}

// aborted reports whether the world has been poisoned.
func (w *World) aborted() bool {
	select {
	case <-w.abort:
		return true
	default:
		return false
	}
}

// AbortCause poisons the world exactly like Abort and records cause as
// the reason (the first recorded cause wins; Cause returns it), so
// blocked ranks unblock and Run reports the real cause instead of a bare
// ErrAborted. Safe to call multiple times and from any goroutine.
func (w *World) AbortCause(cause error) {
	w.causeMu.Lock()
	if w.cause == nil && cause != nil {
		w.cause = cause
	}
	w.causeMu.Unlock()
	w.Abort()
}

// Cause returns the error that poisoned this world, or nil if the world
// is alive or was aborted without a recorded cause.
func (w *World) Cause() error {
	w.causeMu.Lock()
	defer w.causeMu.Unlock()
	return w.cause
}

// AbortOn is the one way a context reaches the world: once ctx ends, the
// world is poisoned with context.Cause(ctx) (AbortCause), so every rank
// blocked in a communication call unblocks. A context that is already
// dead poisons the world at once. The returned stop detaches the watcher
// and reports the recorded cause when the watcher fired (nil otherwise);
// call it once the guarded work is over. A context that can never end
// costs nothing: no watcher, no allocation.
func (w *World) AbortOn(ctx context.Context) (stop func() error) {
	if ctx == nil || ctx.Done() == nil {
		return watchNothing
	}
	if ctx.Err() != nil {
		w.AbortCause(context.Cause(ctx))
		return w.Cause
	}
	detach := context.AfterFunc(ctx, func() { w.AbortCause(context.Cause(ctx)) })
	return func() error {
		if detach() {
			return nil
		}
		// The watcher has started; record its cause before reporting it.
		w.AbortCause(context.Cause(ctx))
		return w.Cause()
	}
}

// watchNothing is AbortOn's stop for a context that can never end.
var watchNothing = func() error { return nil }

// ErrAborted is the panic value raised in ranks blocked on communication
// when the world is aborted (typically because another rank panicked or a
// watched context ended).
var ErrAborted = fmt.Errorf("comm: world aborted")

// Run executes fn once per rank, concurrently, and waits for all ranks to
// finish. If any rank panics, the world is aborted so the remaining ranks
// cannot deadlock, and Run returns an error describing the first panic.
// If the region was instead killed by AbortCause (a cancelled context, an
// injected crash), Run returns an error wrapping the recorded cause. A
// World may host many consecutive Run regions, but not concurrent ones.
func (w *World) Run(fn func(c *Comm)) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	wg.Add(w.size)
	for r := 0; r < w.size; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					mu.Lock()
					// ErrAborted is this world's own abort only when
					// the abort has happened: every raise closes the
					// channel first. Anything else — another world's
					// abort included — is a rank that died.
					if firstErr == nil && (p != ErrAborted || !w.aborted()) {
						firstErr = fmt.Errorf("comm: rank %d panicked: %v", rank, p)
					}
					mu.Unlock()
					w.Abort()
				}
			}()
			fn(&Comm{w: w, rank: rank})
		}(r)
	}
	wg.Wait()
	if fr := w.fault; fr != nil {
		// Injected redeliveries may still be in flight; a Run region
		// must not return while a goroutine of its own is alive.
		fr.wg.Wait()
	}
	if firstErr != nil {
		return firstErr
	}
	if cause := w.Cause(); cause != nil {
		return errCancelled(cause)
	}
	return nil
}

// RunContext is AbortOn(ctx) around Run: when ctx is cancelled or its
// deadline passes, the world is poisoned and every blocked rank unblocks.
// Whenever the world ended poisoned with a cause, RunContext returns an
// error satisfying errors.Is against it (context.Canceled,
// context.DeadlineExceeded, ...).
func (w *World) RunContext(ctx context.Context, fn func(c *Comm)) error {
	stop := w.AbortOn(ctx)
	err := w.Run(fn)
	if cause := stop(); err == nil && cause != nil {
		return errCancelled(cause)
	}
	return err
}

// errCancelled is what a region that ended poisoned with cause reports.
func errCancelled(cause error) error { return fmt.Errorf("comm: run cancelled: %w", cause) }

// Comm is one rank's handle on its World. All communication methods are
// invoked on a Comm and are only valid inside the Run region that created
// it.
type Comm struct {
	w    *World
	rank int
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.w.size }

// World returns the underlying world.
func (c *Comm) World() *World { return c.w }

func (c *Comm) checkPeer(peer int) {
	if peer < 0 || peer >= c.w.size {
		panic(fmt.Sprintf("comm: rank %d used invalid peer %d (world size %d)", c.rank, peer, c.w.size))
	}
}
