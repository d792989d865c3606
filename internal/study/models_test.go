package study

import (
	"testing"

	"ituaval/internal/core"
)

// TestLintRegisteredModels is the model lint lane (`make lint-models`): it
// builds every parameter shape a registered study sweeps through and fails
// on any static-analysis finding — an unreachable activity, an orphaned or
// never-read place, a case distribution off unity, or a violated declared
// bound. The shapes include the structural corners (zero rates, degenerate
// topologies) where dead structure is most likely to hide.
func TestLintRegisteredModels(t *testing.T) {
	shapes := StudyModelShapes()
	if len(shapes) < 15 {
		t.Fatalf("only %d study shapes enumerated; registry has %d studies", len(shapes), len(Registry))
	}
	covered := map[string]bool{}
	for _, sh := range shapes {
		covered[sh.Study] = true
		sh := sh
		t.Run(sh.Study+"/"+sh.Name, func(t *testing.T) {
			t.Parallel()
			m, err := core.Build(sh.Params)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range m.SAN.Lint() {
				t.Errorf("%s", f)
			}
		})
	}
	t.Run("numval/reduced", func(t *testing.T) {
		t.Parallel()
		m, _, _, _, err := reducedValidationModel()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range m.Lint() {
			t.Errorf("%s", f)
		}
	})
	covered["numval"] = true
	// fig5-paired sweeps exactly the fig5 shapes on both policies.
	covered["fig5-paired"] = covered["fig5"]
	for id := range Registry {
		if !covered[id] {
			t.Errorf("registry study %q has no linted model shape", id)
		}
	}
}
