//go:build race

package integrity

// raceEnabled reports that this binary was built with the race detector.
// TestCrossCheckFaults' exact arm takes about 220 s under it on 2 vCPUs,
// more than the rest of the package together, so that test skips itself
// under -race; the pools of all three sampled arms are still raced by
// TestCrossCheckLive and TestCrossCheckExact.
const raceEnabled = true
