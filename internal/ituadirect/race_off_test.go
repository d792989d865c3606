//go:build !race

package ituadirect

const raceEnabled = false
