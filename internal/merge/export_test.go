package merge

import "github.com/scorpiondb/scorpion/internal/partition"

// RefMergeSeeded is the whole-scoring reference merge, for tests outside
// the package.
func (m *Merger) RefMergeSeeded(cands, seeds []partition.Candidate) []partition.Candidate {
	return m.refMergeSeeded(cands, seeds)
}
