//go:build race

package ituadirect

// raceEnabled reports that this binary was built with the race detector,
// whose instrumentation allocates, so allocation gates skip themselves.
const raceEnabled = true
