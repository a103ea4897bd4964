package comm

import (
	"fmt"
	"sync"
	"time"
)

// ErrInjectedFault is the sentinel cause recorded when an injected
// FaultCrash poisons the world. Layers above comm classify a
// fault-killed run with errors.Is against it, the same way they use
// context.DeadlineExceeded for real deadlines.
var ErrInjectedFault = fmt.Errorf("comm: injected fault")

// FaultKind identifies which communication path a fault decision is
// being asked for.
type FaultKind int

const (
	// FaultSend is consulted on the point-to-point send path, before
	// the message is delivered to the destination mailbox.
	FaultSend FaultKind = iota
	// FaultRecv is consulted on the point-to-point receive path, before
	// the blocking take.
	FaultRecv
	// FaultBarrier is consulted on barrier entry. Every collective in
	// this runtime synchronizes through the barrier, so this kind
	// covers the collective path too.
	FaultBarrier
)

// String returns the kind name.
func (k FaultKind) String() string {
	switch k {
	case FaultSend:
		return "send"
	case FaultRecv:
		return "recv"
	case FaultBarrier:
		return "barrier"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultOp is the action an injection hook asks the runtime to perform
// at one communication event.
type FaultOp int

const (
	// FaultNone performs the operation normally.
	FaultNone FaultOp = iota
	// FaultDelay sleeps Delay before the operation (a slow link). The
	// sleep is interruptible: a world abort ends it immediately.
	FaultDelay
	// FaultDropRedeliver (send path only; elsewhere it degrades to
	// FaultDelay) emulates a dropped-and-retransmitted packet: the
	// send returns immediately while the message is delivered
	// asynchronously after Delay. Later sends from the same rank to
	// the same destination wait for the redelivery to land first, so
	// the runtime's per-(src,tag) non-overtaking guarantee — which the
	// solvers are entitled to — is preserved while the message still
	// arrives out of order relative to other ranks' traffic.
	FaultDropRedeliver
	// FaultStall sleeps Delay like FaultDelay; the distinct op lets
	// injectors and schedules tell a long rank pause from per-message
	// jitter.
	FaultStall
	// FaultCrash kills the rank: the world is poisoned with Cause
	// (default ErrInjectedFault) and the rank panics with ErrAborted,
	// exactly as a cancelled context would — peers unblock, Run
	// reports the cause.
	FaultCrash
)

// String returns the op name.
func (o FaultOp) String() string {
	switch o {
	case FaultNone:
		return "none"
	case FaultDelay:
		return "delay"
	case FaultDropRedeliver:
		return "drop-redeliver"
	case FaultStall:
		return "stall"
	case FaultCrash:
		return "crash"
	}
	return fmt.Sprintf("FaultOp(%d)", int(o))
}

// FaultDecision is one injection verdict: what to do, for how long, and
// (for FaultCrash) why.
type FaultDecision struct {
	Op    FaultOp
	Delay time.Duration
	// Cause is recorded as the world's abort cause on FaultCrash; nil
	// defaults to ErrInjectedFault.
	Cause error
}

// FaultHook decides, per communication event, whether and how to
// disturb it. rank is the acting rank; peer is the destination (send),
// source (recv, AnySource = -1) or -1 (barrier); tag is the message tag
// or -1. Implementations are called from rank goroutines: calls for one
// rank are sequential (SPMD program order), calls for different ranks
// are concurrent, so per-rank state needs no locking but shared state
// does.
type FaultHook interface {
	Fault(rank int, kind FaultKind, peer, tag int) FaultDecision
}

// faultRuntime is the world's injection state: the hook plus the
// bookkeeping that keeps asynchronous redeliveries ordered and
// accounted for.
type faultRuntime struct {
	hook FaultHook
	// pending[rank][dest] is the completion channel of the last
	// redelivery rank launched toward dest (nil when none). Written
	// only by rank's own goroutine; closed by the redelivery
	// goroutine.
	pending [][]chan struct{}
	// wg tracks in-flight redelivery goroutines so run() never returns
	// with a delivery still pending.
	wg sync.WaitGroup
}

// SetFaultHook installs (or, with nil, removes) a fault-injection hook
// on the world. It must be called while no Run region is active — the
// canonical pattern is NewWorld → SetFaultHook → Run. With no hook
// installed the communication fast paths pay exactly one nil check.
func (w *World) SetFaultHook(h FaultHook) {
	if h == nil {
		w.fault = nil
		return
	}
	pending := make([][]chan struct{}, w.size)
	for i := range pending {
		pending[i] = make([]chan struct{}, w.size)
	}
	w.fault = &faultRuntime{hook: h, pending: pending}
}

// faultSleep blocks for d, ending early on world abort (panics with
// ErrAborted).
func (c *Comm) faultSleep(d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.w.abort:
		panic(ErrAborted)
	}
}

// faultCrash poisons the world with the decision's cause and raises the
// abort panic on the calling rank.
func (c *Comm) faultCrash(d FaultDecision) {
	cause := d.Cause
	if cause == nil {
		cause = ErrInjectedFault
	}
	c.w.AbortCause(cause)
	panic(ErrAborted)
}

// faultBeforeSend runs the injection hook on the send path. It returns
// true when the message was consumed (scheduled for asynchronous
// redelivery) and the caller must not deliver it itself.
func (c *Comm) faultBeforeSend(fr *faultRuntime, dest, tag int, msg message) bool {
	// Order first: if a redelivery toward dest is still in flight, this
	// send must not overtake it.
	c.awaitRedelivery(fr, dest)
	d := fr.hook.Fault(c.rank, FaultSend, dest, tag)
	switch d.Op {
	case FaultDelay, FaultStall:
		c.faultSleep(d.Delay)
	case FaultCrash:
		c.faultCrash(d)
	case FaultDropRedeliver:
		done := make(chan struct{})
		fr.pending[c.rank][dest] = done
		fr.wg.Add(1)
		go c.redeliver(fr, dest, msg, d.Delay, done)
		return true
	}
	return false
}

// awaitRedelivery blocks until the pending redelivery toward dest (if
// any) has landed, keeping per-destination delivery order intact.
func (c *Comm) awaitRedelivery(fr *faultRuntime, dest int) {
	done := fr.pending[c.rank][dest]
	if done == nil {
		return
	}
	select {
	case <-done:
		fr.pending[c.rank][dest] = nil
	case <-c.w.abort:
		panic(ErrAborted)
	}
}

// redeliver delivers msg to dest after a delay, emulating a packet
// retransmission. An abort during the wait (or during delivery — put
// panics on a poisoned world) drops the message: the world is dead
// either way.
func (c *Comm) redeliver(fr *faultRuntime, dest int, msg message, delay time.Duration, done chan struct{}) {
	defer fr.wg.Done()
	defer close(done)
	defer func() {
		if p := recover(); p != nil && p != ErrAborted {
			panic(p)
		}
	}()
	if delay > 0 {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-c.w.abort:
			return
		}
	}
	c.w.mail[dest].put(msg)
}

// faultPoint runs the injection hook at a non-send communication event
// (recv, barrier). FaultDropRedeliver has no message to hold back here
// and degrades to a delay.
func (c *Comm) faultPoint(fr *faultRuntime, kind FaultKind, peer, tag int) {
	d := fr.hook.Fault(c.rank, kind, peer, tag)
	switch d.Op {
	case FaultDelay, FaultStall, FaultDropRedeliver:
		c.faultSleep(d.Delay)
	case FaultCrash:
		c.faultCrash(d)
	}
}
