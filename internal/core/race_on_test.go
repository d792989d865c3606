//go:build race

package core

// raceEnabled reports that this binary was built with the race detector.
// Under -race sync.Pool drops a share of its items on purpose, so the
// pooled canonicalizer scratch is reallocated at random and allocation
// counts are not meaningful.
const raceEnabled = true
