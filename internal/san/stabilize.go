package san

import (
	"errors"
	"fmt"
)

// maxInstantChain bounds the number of consecutive instantaneous firings so
// a modeling bug (an instantaneous activity that never disables itself)
// fails loudly instead of looping forever.
const maxInstantChain = 1 << 20

// ErrUnstable is returned when instantaneous activities keep firing beyond
// the stabilization bound.
var ErrUnstable = errors.New("san: instantaneous activities did not stabilize (self-enabling loop?)")

// Stabilize fires enabled instantaneous activities until none remains
// enabled, implementing the SAN race semantics: among the enabled
// instantaneous activities of the highest priority, one is chosen
// uniformly ("all of the copies are equally likely to fire first").
// Returns the number of firings.
func Stabilize(m *Model, ctx *Context) (int, error) {
	fired := 0
	for {
		enabled := m.MaxInstantPriorityEnabledInto(ctx.State, nil)
		if len(enabled) == 0 {
			return fired, nil
		}
		a := enabled[0]
		if len(enabled) > 1 {
			a = enabled[ctx.Rand.Race(len(enabled))]
		}
		a.Fire(ctx, a.ChooseCase(ctx))
		fired++
		if fired > maxInstantChain {
			return fired, fmt.Errorf("%w: last fired %q", ErrUnstable, a.Name())
		}
	}
}
