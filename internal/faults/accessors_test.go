package faults

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"smartharvest/internal/obs"
)

// Accessors that only this package's tests read.

// Counts returns a copy of the per-kind injection tallies.
func (t *tally) Counts() map[obs.FaultKind]uint64 { return maps.Clone(t.counts) }

// CountsString renders the tallies deterministically (sorted by kind).
func (t *tally) CountsString() string {
	kinds := make([]obs.FaultKind, 0, len(t.counts))
	for k := range t.counts {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	if len(kinds) == 0 {
		return "none"
	}
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s=%d", k, t.counts[k])
	}
	return strings.Join(parts, " ")
}
