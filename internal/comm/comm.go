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
// buffer), Barrier, Split, and the collectives a solver above it calls:
// AllReduce (float64, int, []float64 in place), AllGather (int, []int, and
// the concatenating V forms), Bcast (int, string, []float64, and into a
// buffer), GatherV and ScatterV — so that the solver substrates built on
// top of it exercise the same code paths a cluster implementation would.
// Every collective posts through one mechanism, the typed per-rank slots
// between two barriers.
//
// # Cancellation
//
// Every blocking operation honors the context bound to its Comm (see
// WithContext and RunContext). When that context is cancelled or its
// deadline passes while a rank is blocked — or about to block — the rank
// cancels the whole communicator tree (root world and every Split-derived
// sub-world) and panics with ErrAborted, exactly as if Abort had been
// called. This mirrors MPI_Abort semantics: cancellation is cooperative
// but world-fatal, so one rank's deadline can never leave its peers
// deadlocked in a barrier or collective the cancelled rank will never
// join. Run and RunContext recover the resulting panics and report the
// recorded cancellation cause.
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

	// causeMu guards cause, the first cancellation error recorded before
	// the abort machinery fired (nil for a plain Abort).
	causeMu sync.Mutex
	cause   error

	// Sub-worlds created by Split register here so an abort of this
	// world releases ranks blocked inside sub-communicator calls too;
	// parent points the other way so a cancellation observed inside a
	// sub-world poisons the whole communicator tree from the root down.
	childMu  sync.Mutex
	children []*World
	parent   *World
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

// collSlot is one rank's typed posting slot for the collectives: scalar,
// string and slice contributions are posted into the typed field, so
// nothing is boxed. Padded so adjacent ranks' slots do not share a cache
// line.
type collSlot struct {
	f   float64
	i   int
	s   string
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
// panics with ErrAborted — in this world and, recursively, in every
// sub-world Split derived from it, so no rank stays blocked in a
// sub-communicator barrier or collective slot. Run recovers those
// panics. Abort is safe to call multiple times and from any goroutine.
func (w *World) Abort() {
	w.once.Do(func() {
		close(w.abort)
		w.childMu.Lock()
		children := append([]*World(nil), w.children...)
		w.childMu.Unlock()
		for _, child := range children {
			child.Abort()
		}
	})
}

// AbortCause poisons the world exactly like Abort and records cause as
// the reason (the first recorded cause wins; Cause returns it). It is
// the external-watcher counterpart of a bound context expiring: callers
// that observe a deadline or cancellation outside a communication call
// use it so blocked ranks unblock with the real cause instead of a bare
// ErrAborted. Safe to call multiple times and from any goroutine.
func (w *World) AbortCause(cause error) { w.cancel(cause) }

// cancel records cause as the reason this communicator tree died and
// aborts it. The poison is applied from the root of the Split tree so a
// deadline observed inside a sub-world releases ranks blocked in parent
// (or sibling) communicators too — without this, one rank's cancellation
// inside a sub-world would deadlock peers waiting in the parent world.
func (w *World) cancel(cause error) {
	root := w
	for {
		root.childMu.Lock()
		p := root.parent
		root.childMu.Unlock()
		if p == nil {
			break
		}
		root = p
	}
	root.cancelDown(cause)
}

// cancelDown records cause on w and every descendant, then aborts w
// (Abort cascades to the descendants again; it is idempotent).
func (w *World) cancelDown(cause error) {
	w.causeMu.Lock()
	if w.cause == nil && cause != nil {
		w.cause = cause
	}
	w.causeMu.Unlock()
	w.childMu.Lock()
	children := append([]*World(nil), w.children...)
	w.childMu.Unlock()
	for _, child := range children {
		child.cancelDown(cause)
	}
	w.Abort()
}

// Cause returns the context error that cancelled this world, or nil if
// the world is alive or was aborted without a recorded cause.
func (w *World) Cause() error {
	w.causeMu.Lock()
	defer w.causeMu.Unlock()
	return w.cause
}

// aborted reports whether Abort has run (or begun).
func (w *World) aborted() bool {
	select {
	case <-w.abort:
		return true
	default:
		return false
	}
}

// addChild links a Split-derived sub-world into this world's abort
// domain. When the parent is already aborted the child is poisoned
// immediately, closing the race between Split and a concurrent Abort.
func (w *World) addChild(child *World) {
	child.childMu.Lock()
	child.parent = w
	child.childMu.Unlock()
	w.childMu.Lock()
	w.children = append(w.children, child)
	aborted := w.aborted()
	w.childMu.Unlock()
	if aborted {
		child.Abort()
	}
}

// ErrAborted is the panic value raised in ranks blocked on communication
// when the world is aborted (typically because another rank panicked or a
// bound context was cancelled).
var ErrAborted = fmt.Errorf("comm: world aborted")

// Run executes fn once per rank, concurrently, and waits for all ranks to
// finish. If any rank panics, the world is aborted so the remaining ranks
// cannot deadlock, and Run returns an error describing the first panic.
// If the region was instead killed by a cancelled context (see WithContext),
// Run returns an error wrapping the recorded cause. A World may host many
// consecutive Run regions, but not concurrent ones.
func (w *World) Run(fn func(c *Comm)) error {
	return w.run(nil, fn)
}

// RunContext executes fn once per rank like Run, with ctx bound to every
// rank's Comm: blocking communication unblocks promptly when ctx is
// cancelled or its deadline passes, and a single watcher goroutine (which
// never outlives the call) covers ranks that are between communication
// calls when the context dies. When the region is cancelled, RunContext
// returns an error satisfying errors.Is against ctx.Err().
func (w *World) RunContext(ctx context.Context, fn func(c *Comm)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var watcherDone chan struct{}
	if ctx.Done() != nil {
		watcherDone = make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				w.cancel(ctx.Err())
			case <-watcherDone:
			}
		}()
	}
	err := w.run(ctx, fn)
	if watcherDone != nil {
		close(watcherDone)
	}
	return err
}

func (w *World) run(ctx context.Context, fn func(c *Comm)) error {
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
					if firstErr == nil && p != ErrAborted {
						firstErr = fmt.Errorf("comm: rank %d panicked: %v", rank, p)
					}
					mu.Unlock()
					w.Abort()
				}
			}()
			fn(&Comm{w: w, rank: rank, ctx: ctx})
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
		return fmt.Errorf("comm: run cancelled: %w", cause)
	}
	return nil
}

// Comm is one rank's handle on its World. All communication methods are
// invoked on a Comm and are only valid inside the Run region that created
// it.
type Comm struct {
	w    *World
	rank int
	ctx  context.Context // nil means no cancellation scope
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.w.size }

// World returns the underlying world.
func (c *Comm) World() *World { return c.w }

// WithContext returns a copy of c whose blocking operations additionally
// unblock (by cancelling the world and panicking with ErrAborted) when
// ctx is cancelled or its deadline passes. The original Comm is not
// modified; Split inherits the context into the sub-communicator handle.
func (c *Comm) WithContext(ctx context.Context) *Comm {
	return &Comm{w: c.w, rank: c.rank, ctx: ctx}
}

// Context returns the context bound to this Comm, or context.Background()
// when none is bound.
func (c *Comm) Context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// ctxDone returns the bound context's done channel (nil when no context
// is bound or the context can never be cancelled; a nil channel blocks
// forever in select, so the uncancellable path costs nothing).
func (c *Comm) ctxDone() <-chan struct{} {
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Done()
}

// checkCtx fails fast when the bound context is already dead: it cancels
// the communicator tree and panics with ErrAborted.
func (c *Comm) checkCtx() {
	if c.ctx == nil {
		return
	}
	if err := c.ctx.Err(); err != nil {
		c.w.cancel(err)
		panic(ErrAborted)
	}
}

// cancelled handles a ctx.Done observed mid-block: record the cause,
// poison the tree, raise the abort panic.
func (c *Comm) cancelled() {
	err := c.ctx.Err()
	if err == nil {
		err = context.Canceled
	}
	c.w.cancel(err)
	panic(ErrAborted)
}

func (c *Comm) checkPeer(peer int) {
	if peer < 0 || peer >= c.w.size {
		panic(fmt.Sprintf("comm: rank %d used invalid peer %d (world size %d)", c.rank, peer, c.w.size))
	}
}
