package comm

// SetPollBudget replaces the number of polls a wait makes before it parks
// (0 = park at once) and returns the call that restores it. Call both
// outside Run regions.
func SetPollBudget(n int) (restore func()) {
	old := pollBudget
	pollBudget = n
	return func() { pollBudget = old }
}
