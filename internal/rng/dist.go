package rng

import "fmt"

// Dist is a sampling distribution over the non-negative reals: the
// firing-time distribution of a timed activity. Implementations are
// immutable value types safe for concurrent use; all per-call randomness
// comes from the supplied stream.
type Dist interface {
	// Sample draws one variate using s.
	Sample(s *Stream) float64
	// Mean returns the theoretical mean (NaN if undefined).
	Mean() float64
	// String describes the distribution for diagnostics and DOT export.
	String() string
}

// Exponential is the exponential distribution with the given rate (>0).
type Exponential struct{ R float64 }

// Expo is shorthand for Exponential{R: rate}.
func Expo(rate float64) Exponential { return Exponential{R: rate} }

func (d Exponential) Sample(s *Stream) float64 { return s.Expo(d.R) }
func (d Exponential) Mean() float64            { return 1 / d.R }
func (d Exponential) String() string           { return fmt.Sprintf("Expo(%g)", d.R) }

// Deterministic always returns V (>= 0 for firing times).
type Deterministic struct{ V float64 }

func (d Deterministic) Sample(*Stream) float64 { return d.V }
func (d Deterministic) Mean() float64          { return d.V }
func (d Deterministic) String() string         { return fmt.Sprintf("Det(%g)", d.V) }
