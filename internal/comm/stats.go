package comm

import (
	"sync/atomic"
	"time"
)

// rankStats is one rank's always-on communication counters. Every field
// is updated with a single atomic add on the rank's own cache-line-
// padded cell, so instrumentation is race-free and costs nanoseconds —
// cheap enough to leave enabled under the bench harness.
type rankStats struct {
	sends         atomic.Int64
	recvs         atomic.Int64
	bytesSent     atomic.Int64
	bytesRecv     atomic.Int64
	barriers      atomic.Int64
	barrierWaitNs atomic.Int64
	barrierParks  atomic.Int64
	recvParks     atomic.Int64
	collectives   atomic.Int64
	poolAllocs    atomic.Int64
	poolRecycled  atomic.Int64
	_             [64]byte // pad so adjacent ranks don't share a cache line
}

// Stats is a snapshot of communication counters — one rank's, or the
// whole world's when aggregated by World.Stats.
type Stats struct {
	Sends          int64         // point-to-point messages sent
	Recvs          int64         // point-to-point messages received
	BytesSent      int64         // payload bytes sent (typed payloads only)
	BytesRecv      int64         // payload bytes received
	BarrierEntries int64         // barrier entries (incl. collective-internal)
	BarrierWait    time.Duration // time waiting in barriers (the releasing arrival adds none)
	BarrierParks   int64         // barrier waits that outlived the poll budget and blocked
	RecvParks      int64         // receive waits that outlived the poll budget and blocked
	Collectives    int64         // collective operations entered
	PoolAllocs     int64         // pooled sends that had to allocate a fresh buffer
	PoolRecycled   int64         // received pooled buffers returned to the pool
}

// Add returns the element-wise sum s + o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Sends:          s.Sends + o.Sends,
		Recvs:          s.Recvs + o.Recvs,
		BytesSent:      s.BytesSent + o.BytesSent,
		BytesRecv:      s.BytesRecv + o.BytesRecv,
		BarrierEntries: s.BarrierEntries + o.BarrierEntries,
		BarrierWait:    s.BarrierWait + o.BarrierWait,
		BarrierParks:   s.BarrierParks + o.BarrierParks,
		RecvParks:      s.RecvParks + o.RecvParks,
		Collectives:    s.Collectives + o.Collectives,
		PoolAllocs:     s.PoolAllocs + o.PoolAllocs,
		PoolRecycled:   s.PoolRecycled + o.PoolRecycled,
	}
}

// Sub returns the element-wise difference s − o, for attributing the
// traffic of a window between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Sends:          s.Sends - o.Sends,
		Recvs:          s.Recvs - o.Recvs,
		BytesSent:      s.BytesSent - o.BytesSent,
		BytesRecv:      s.BytesRecv - o.BytesRecv,
		BarrierEntries: s.BarrierEntries - o.BarrierEntries,
		BarrierWait:    s.BarrierWait - o.BarrierWait,
		BarrierParks:   s.BarrierParks - o.BarrierParks,
		RecvParks:      s.RecvParks - o.RecvParks,
		Collectives:    s.Collectives - o.Collectives,
		PoolAllocs:     s.PoolAllocs - o.PoolAllocs,
		PoolRecycled:   s.PoolRecycled - o.PoolRecycled,
	}
}

func (r *rankStats) snapshot() Stats {
	return Stats{
		Sends:          r.sends.Load(),
		Recvs:          r.recvs.Load(),
		BytesSent:      r.bytesSent.Load(),
		BytesRecv:      r.bytesRecv.Load(),
		BarrierEntries: r.barriers.Load(),
		BarrierWait:    time.Duration(r.barrierWaitNs.Load()),
		BarrierParks:   r.barrierParks.Load(),
		RecvParks:      r.recvParks.Load(),
		Collectives:    r.collectives.Load(),
		PoolAllocs:     r.poolAllocs.Load(),
		PoolRecycled:   r.poolRecycled.Load(),
	}
}

// Stats returns the world total: the element-wise sum of every rank's
// counters. Safe to call concurrently with a Run region; the snapshot
// is then approximate (each counter individually consistent).
func (w *World) Stats() Stats {
	var total Stats
	for r := range w.stats {
		total = total.Add(w.stats[r].snapshot())
	}
	return total
}

// payloadBytes sizes the typed payloads the p2p layer carries; unknown
// payload kinds (e.g. the *World handle Split distributes) count zero
// bytes but still count as messages.
func payloadBytes(data any) int64 {
	switch v := data.(type) {
	case []float64:
		return int64(8 * len(v))
	case *pooledBuf:
		return int64(8 * len(v.f))
	case []int:
		return int64(8 * len(v))
	}
	return 0
}
