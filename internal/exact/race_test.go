//go:build race

package exact_test

func init() { raceEnabled = true }
