package ledger

import (
	"fmt"

	"hyperalloc/internal/sim"
)

// LedgerState is the serializable state of a Ledger: per kind, the entry
// stream (parallel Start/Amount slices keep the JSON compact) and the
// longest-entry bound. Restoring the tail entry of each kind exactly is
// what preserves coalescing identity — a post-restore charge landing
// within the coalesce window of the checkpointed tail must merge into it
// just as it would have in the uninterrupted run.
type LedgerState struct {
	Start  [numKinds][]sim.Time
	Amount [numKinds][]int64
	MaxDur [numKinds]sim.Duration
}

// State captures the ledger.
func (l *Ledger) State() *LedgerState {
	st := &LedgerState{MaxDur: l.maxDur}
	for k, es := range l.entries {
		for _, e := range es {
			st.Start[k] = append(st.Start[k], e.start)
			st.Amount[k] = append(st.Amount[k], e.amount)
		}
	}
	return st
}

// RestoreState overwrites the ledger with a checkpointed state. A kind
// whose Start and Amount slices differ in length is rejected before
// anything is overwritten.
func (l *Ledger) RestoreState(st *LedgerState) error {
	for k := range st.Start {
		if len(st.Start[k]) != len(st.Amount[k]) {
			return fmt.Errorf("ledger: kind %d has %d starts but %d amounts",
				k, len(st.Start[k]), len(st.Amount[k]))
		}
	}
	for k := range l.entries {
		l.entries[k] = l.entries[k][:0]
		for i := range st.Start[k] {
			l.entries[k] = append(l.entries[k], entry{start: st.Start[k][i], amount: st.Amount[k][i]})
		}
		l.maxDur[k] = st.MaxDur[k]
	}
	return nil
}
