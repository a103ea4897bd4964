package comm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// awaitResult reports how a blocking wait ended: woken, or killed by a
// world abort.
type awaitResult int

const (
	awaitOK awaitResult = iota
	awaitAborted
)

// yieldPolls is how many times a wait polls its wake channel, with a
// runtime.Gosched after each miss, before it parks. Two ranks that are
// both running meet within a microsecond or two, but parking the waiter
// makes the peer's arrival pay a goroutine wake-up and, once the waiter's
// P has gone idle, a futex wake-up of its thread: 72 µs from send to
// running on the 2-vCPU reference host, paid at most of the ~10k
// rendezvous of one GMRES(30) solve. The ski-rental rule sets the budget:
// poll for as long as one park + wake-up costs and no wait costs more
// than twice its optimum. A missed poll and its yield take 0.12 µs, so
// 600 of them are that 72 µs; measured, solve time is flat from 150 polls
// to 10000 and a third worse at 50. The yield is what makes polling safe:
// a peer that has no P of its own (GOMAXPROCS=1, more ranks than cores)
// gets this one, so the wait cannot livelock, and polling back to back
// without it measured slower wherever it differed. docs/PERFORMANCE.md
// "Rendezvous" has the tables.
const yieldPolls = 600

// pollBudget is yieldPolls; only tests change it (0 parks every wait at
// once, the behaviour before waits polled).
var pollBudget = yieldPolls

// waitOn is the one place a rank waits for a peer: barrier.await waits
// for its generation's token with it, mailbox.take for its hand-off. It
// polls wake up to pollBudget times, then counts a park and blocks until
// wake delivers or the world aborts. Every missed poll also looks at
// abort, so an abort releases a polling rank at its next poll. That look
// is its own single-case select: a non-blocking receive from an open,
// empty channel reads it without taking its lock, where a two-case
// select would lock wake and the abort channel every rank shares.
func waitOn[T any](wake <-chan T, abort <-chan struct{}, parks *atomic.Int64) (T, awaitResult) {
	var none T
	for i := 0; i < pollBudget; i++ {
		select {
		case v := <-wake:
			return v, awaitOK
		default:
		}
		select {
		case <-abort:
			return none, awaitAborted
		default:
		}
		runtime.Gosched()
	}
	parks.Add(1)
	select {
	case v := <-wake:
		return v, awaitOK
	case <-abort:
		return none, awaitAborted
	}
}

// barrier is a reusable (cyclic) barrier for a fixed number of
// participants. Release is by tokens on one of two pre-allocated buffered
// channels (selected by generation parity) rather than by closing and
// re-making a gate channel per generation: the last arrival of a
// generation deposits parties−1 tokens, each waiter consumes one, and the
// steady-state path performs no allocation at all. Waiters wait on the
// token channel with waitOn, which also watches the world's abort channel,
// so a blocked rank can always be released.
//
// Parity reuse is safe: a rank cannot enter generation g+2 before every
// rank has entered generation g+1, and a rank only enters g+1 after
// consuming its generation-g token, so channel tokens[g%2] is drained
// before generation g+2 begins refilling it.
type barrier struct {
	mu      sync.Mutex
	parties int
	waiting int
	gen     uint
	tokens  [2]chan struct{}
	abortCh chan struct{}
}

func newBarrier(parties int, abortCh chan struct{}) *barrier {
	b := &barrier{parties: parties, abortCh: abortCh}
	b.tokens[0] = make(chan struct{}, parties)
	b.tokens[1] = make(chan struct{}, parties)
	return b
}

// await blocks until all parties of the current generation have entered
// or the world aborts, whichever comes first. Only an arrival that has to
// wait reads the clock and adds to st's barrier wait; the one that
// releases the generation returns at once.
func (b *barrier) await(st *rankStats) awaitResult {
	b.mu.Lock()
	select {
	case <-b.abortCh:
		b.mu.Unlock()
		return awaitAborted
	default:
	}
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		t := b.tokens[b.gen%2]
		b.gen++
		b.mu.Unlock()
		for i := 0; i < b.parties-1; i++ {
			t <- struct{}{} // buffered to parties: never blocks
		}
		return awaitOK
	}
	t := b.tokens[b.gen%2]
	b.mu.Unlock()
	start := time.Now()
	_, res := waitOn(t, b.abortCh, &st.barrierParks)
	st.barrierWaitNs.Add(int64(time.Since(start)))
	return res
}

// Barrier blocks until every rank in the world has entered it or the
// world is aborted (see the package comment on cancellation).
func (c *Comm) Barrier() {
	if fr := c.w.fault; fr != nil {
		c.faultPoint(fr, FaultBarrier, -1, -1)
	}
	st := &c.w.stats[c.rank]
	st.barriers.Add(1)
	if c.w.bar.await(st) == awaitAborted {
		panic(ErrAborted)
	}
}
