package mc

// ParallelSolveMin is the chain size (states + transitions) from which a
// solve with more than one worker runs its matvec on a worker pool.
const ParallelSolveMin = parallelSolveMin

// Matvecs reports how many uniformization steps the package has applied.
func Matvecs() int64 { return matvecs.Load() }

// CSR returns the generator's row-major arrays (aliased; do not modify).
func (c *CTMC) CSR() (rowPtr, cols []int32, rates []float64) {
	return c.rowPtr, c.cols, c.rates
}

// RaceEnabled reports whether the race detector is on.
func RaceEnabled() bool { return raceEnabled }
