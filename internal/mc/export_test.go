package mc

// Matvecs reports how many uniformization steps the package has applied.
func Matvecs() int64 { return matvecs.Load() }
