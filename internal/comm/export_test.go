package comm

import "time"

// SetPollBudget replaces the number of polls a wait makes before it parks
// (0 = park at once) and returns the call that restores it. Call both
// outside Run regions.
func SetPollBudget(n int) (restore func()) {
	old := pollBudget
	pollBudget = n
	return func() { pollBudget = old }
}

// LiveLimit is what a run short of Ps may take given the time of the same
// run with a P per rank (or per core): a small factor, and never under a
// second so a noisy host cannot fail it. The failure it exists for — a
// poll that never yields, so each rendezvous waits for the 10 ms async
// pre-emption — is thousands × 10 ms, far past either.
func LiveLimit(ref time.Duration) time.Duration {
	if limit := 10 * ref; limit > time.Second {
		return limit
	}
	return time.Second
}
