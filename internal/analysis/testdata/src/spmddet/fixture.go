// Fixture for the spmddet analyzer: comm calls and floating-point folds
// ordered by map iteration must be flagged; the sorted-keys idiom,
// integer folds and key collection must not.
package spmddet

import (
	"sort"

	"repro/internal/comm"
)

func mapOrderSend(c *comm.Comm, byPeer map[int][]float64) {
	for peer, data := range byPeer {
		c.SendFloat64sPooled(peer, 0, data) // want "comm call Comm.SendFloat64sPooled is issued in map iteration order"
	}
}

// sortedKeys is the legal shape: collect, sort, iterate the slice.
func sortedKeys(c *comm.Comm, byPeer map[int][]float64) {
	peers := make([]int, 0, len(byPeer))
	for p := range byPeer {
		peers = append(peers, p)
	}
	sort.Ints(peers)
	for _, p := range peers {
		c.SendFloat64sPooled(p, 0, byPeer[p])
	}
}

func mapFloatFold(weights map[string]float64) float64 {
	total := 0.0
	for _, w := range weights {
		total += w // want "floating-point accumulation into total in map iteration order"
	}
	return total
}

func mapSpelledFold(weights map[string]float64) float64 {
	total := 0.0
	for _, w := range weights {
		total = total + w // want "floating-point accumulation into total in map iteration order"
	}
	return total
}

// mapIntFold is legal: integer addition is associative bit-for-bit.
func mapIntFold(counts map[string]int) int {
	n := 0
	for _, v := range counts {
		n += v
	}
	return n
}

// loopLocalFold is legal: the accumulator lives and dies inside one
// iteration, so cross-iteration order never matters.
func loopLocalFold(rows map[int][]float64) map[int]float64 {
	out := make(map[int]float64, len(rows))
	for k, row := range rows {
		s := 0.0
		for _, v := range row {
			s += v
		}
		out[k] = s
	}
	return out
}
