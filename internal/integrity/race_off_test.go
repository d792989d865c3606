//go:build !race

package integrity

const raceEnabled = false
