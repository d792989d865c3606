//go:build race

package mc

func init() { raceEnabled = true }
