package analyzer

// MatchChannels exposes the critical path's channel matcher to the
// package's external tests: for every row of tr, the row of the send it
// received from, or -1.
func MatchChannels(tr *Trace) []int { return matchChannels(tr.segment()) }
