package comm

import (
	"sync"
	"sync/atomic"
)

// message is one in-flight point-to-point payload.
type message struct {
	src  int
	tag  int
	data any
}

// recvWaiter is one blocked receive's registration: its match pattern and
// a capacity-1 handoff channel. Records are recycled through the mailbox's
// free list, so the steady-state blocking path allocates nothing.
type recvWaiter struct {
	src, tag int
	ch       chan message
}

// mailbox holds unmatched incoming messages for one rank. A mailbox can
// have several concurrent consumers (the rank's own blocking receives plus
// IRecv goroutines), so delivery is by direct handoff: a blocked take
// registers a recvWaiter and put passes a matching message straight to the
// earliest-registered matching waiter through its capacity-1 channel.
// Registration, queue scans and waiter matching all happen under one
// mutex, which rules out lost wakeups; the handoff itself never blocks
// because a waiter removed from the list receives exactly one message.
// Unlike the classic close-and-remake broadcast gate, neither delivery nor
// a blocked receive allocates in steady state: idle waiter records sit in
// free, a plain list under the same mutex (a sync.Pool's per-P slots miss
// whenever a polling rank resumes on another P, and again after each GC).
type mailbox struct {
	mu      sync.Mutex
	queue   []message
	waiters []*recvWaiter
	free    []*recvWaiter
	abortCh chan struct{}
}

func newMailbox(abortCh chan struct{}) *mailbox {
	return &mailbox{abortCh: abortCh}
}

func (m *mailbox) put(msg message) {
	m.mu.Lock()
	select {
	case <-m.abortCh:
		m.mu.Unlock()
		panic(ErrAborted)
	default:
	}
	for i, w := range m.waiters {
		if (w.src == AnySource || w.src == msg.src) && (w.tag == AnyTag || w.tag == msg.tag) {
			copy(m.waiters[i:], m.waiters[i+1:])
			m.waiters[len(m.waiters)-1] = nil
			m.waiters = m.waiters[:len(m.waiters)-1]
			m.mu.Unlock()
			w.ch <- msg // cap 1 and w is deregistered: never blocks
			return
		}
	}
	m.queue = append(m.queue, msg)
	m.mu.Unlock()
}

// take blocks until a message matching (src, tag) is available and removes
// it from the queue. Matching is FIFO among matching messages, which gives
// MPI's non-overtaking guarantee per (src, tag) pair; concurrent waiters
// are served in registration order. A take that finds no queued match
// waits on its hand-off channel with waitOn, counting a park on parks when
// the poll budget runs out. The wait ends early when the world aborts —
// the waiter record is then abandoned rather than recycled, since a
// racing put may still hand it a message (the world is dead either way,
// so the message is deliberately dropped).
func (m *mailbox) take(src, tag int, parks *atomic.Int64) (message, awaitResult) {
	m.mu.Lock()
	select {
	case <-m.abortCh:
		m.mu.Unlock()
		return message{}, awaitAborted
	default:
	}
	for i, msg := range m.queue {
		if (src == AnySource || msg.src == src) && (tag == AnyTag || msg.tag == tag) {
			copy(m.queue[i:], m.queue[i+1:])
			m.queue[len(m.queue)-1] = message{} // drop the payload reference
			m.queue = m.queue[:len(m.queue)-1]
			m.mu.Unlock()
			return msg, awaitOK
		}
	}
	var w *recvWaiter
	if n := len(m.free); n > 0 {
		w, m.free = m.free[n-1], m.free[:n-1]
	} else {
		w = &recvWaiter{ch: make(chan message, 1)}
	}
	w.src, w.tag = src, tag
	m.waiters = append(m.waiters, w)
	m.mu.Unlock()
	msg, res := waitOn(w.ch, m.abortCh, parks)
	if res == awaitOK {
		m.mu.Lock()
		m.free = append(m.free, w) // only a normal completion recycles the record
		m.mu.Unlock()
	}
	return msg, res
}

// send delivers a payload to dest. The payload must already be an owned
// copy; the typed wrappers below take care of copying.
func (c *Comm) send(dest, tag int, data any) {
	c.checkPeer(dest)
	st := &c.w.stats[c.rank]
	st.sends.Add(1)
	st.bytesSent.Add(payloadBytes(data))
	msg := message{src: c.rank, tag: tag, data: data}
	if fr := c.w.fault; fr != nil {
		if c.faultBeforeSend(fr, dest, tag, msg) {
			return // consumed: scheduled for asynchronous redelivery
		}
	}
	c.w.mail[dest].put(msg)
}

// recv blocks for a payload matching (src, tag) and returns it together
// with the actual source rank.
func (c *Comm) recv(src, tag int) (any, int) {
	if src != AnySource {
		c.checkPeer(src)
	}
	if fr := c.w.fault; fr != nil {
		c.faultPoint(fr, FaultRecv, src, tag)
	}
	st := &c.w.stats[c.rank]
	msg, res := c.w.mail[c.rank].take(src, tag, &st.recvParks)
	if res == awaitAborted {
		panic(ErrAborted)
	}
	st.recvs.Add(1)
	st.bytesRecv.Add(payloadBytes(msg.data))
	return msg.data, msg.src
}

// SendFloat64s sends a copy of x to dest with the given tag. The caller
// keeps ownership of x.
func (c *Comm) SendFloat64s(dest, tag int, x []float64) {
	cp := make([]float64, len(x))
	copy(cp, x)
	c.send(dest, tag, cp)
}

// SendFloat64sPooled sends a copy of x to dest with the given tag, staging
// the copy in a buffer drawn from the world's payload pool instead of a
// fresh allocation. The buffer is recycled when the receiver uses
// RecvFloat64sInto; a receiver using RecvFloat64s instead takes ownership
// of it (the buffer then simply never returns to the pool). The caller
// keeps ownership of x, and the steady-state send path allocates nothing.
func (c *Comm) SendFloat64sPooled(dest, tag int, x []float64) {
	pb := c.w.getBuf(len(x), &c.w.stats[c.rank])
	copy(pb.f, x)
	c.send(dest, tag, pb)
}

// RecvFloat64s receives a []float64 matching (src, tag). It returns the
// payload and the actual source rank. It panics if the matched message has
// a different payload type, which indicates mismatched send/recv pairing.
// When the sender used SendFloat64sPooled the caller takes ownership of
// the (pool-originated) buffer and may retain it indefinitely.
func (c *Comm) RecvFloat64s(src, tag int) ([]float64, int) {
	data, from := c.recv(src, tag)
	switch v := data.(type) {
	case []float64:
		return v, from
	case *pooledBuf:
		return v.f, from // ownership leaves the pool with the caller
	}
	panic("comm: RecvFloat64s matched a message whose payload is not []float64")
}

// RecvFloat64sInto receives a []float64 matching (src, tag) into dst and
// returns the payload length together with the actual source rank. dst
// must be at least as long as the payload (an MPI_Recv-style contract;
// shorter is a pairing bug and panics). Pooled payloads are recycled to
// the world's pool after the copy, so a SendFloat64sPooled →
// RecvFloat64sInto exchange allocates nothing in steady state. dst is
// owned by the caller throughout — the comm layer never retains it.
func (c *Comm) RecvFloat64sInto(dst []float64, src, tag int) (n, from int) {
	data, from := c.recv(src, tag)
	var payload []float64
	pb, pooled := data.(*pooledBuf)
	if pooled {
		payload = pb.f
	} else {
		var ok bool
		payload, ok = data.([]float64)
		if !ok {
			panic("comm: RecvFloat64sInto matched a message whose payload is not []float64")
		}
	}
	if len(dst) < len(payload) {
		panic("comm: RecvFloat64sInto destination shorter than payload")
	}
	n = copy(dst, payload)
	if pooled {
		c.w.putBuf(pb, &c.w.stats[c.rank])
	}
	return n, from
}

// SendInts sends a copy of x to dest with the given tag.
func (c *Comm) SendInts(dest, tag int, x []int) {
	cp := make([]int, len(x))
	copy(cp, x)
	c.send(dest, tag, cp)
}

// RecvInts receives a []int matching (src, tag) and the actual source rank.
func (c *Comm) RecvInts(src, tag int) ([]int, int) {
	data, from := c.recv(src, tag)
	x, ok := data.([]int)
	if !ok {
		panic("comm: RecvInts matched a message whose payload is not []int")
	}
	return x, from
}
