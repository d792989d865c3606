package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse drives the strict JSON decoder with arbitrary bytes: it must
// never panic, and whatever it accepts must also survive Compile and
// canonicalize stably (Parse(Canonical) == same hash) — the invariant the
// content-addressed result cache depends on. The seeds include the huge
// seed strides that once hung Compile. Run continuously via
// `make fuzz-smoke`.
func FuzzParse(f *testing.F) {
	for _, name := range []string{"fig5.json", "analytic.json", "live.json", "faults.json"} {
		if data, err := os.ReadFile(filepath.Join(exemplarDir, name)); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte(`{"name":"x","model":{"domains":0},"horizon":5}`))
	f.Add([]byte(`{"name":"x","model":{"domains":2,"hostsPerDomain":1,"apps":1,"repsPerApp":2},"horizon":1e308,"measures":[{"name":"u","kind":"unavailability"}]}`))
	for _, in := range strideInputs {
		for _, series := range []bool{false, true} {
			f.Add([]byte(strideSpec(in.x, series)))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			return
		}
		c, err := Compile(sc, Defaults{})
		if err != nil {
			return
		}
		// Accepted input: the canonical form must re-parse to the same
		// content address (idempotent normalization).
		canon := c.Canonical()
		sc2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, canon)
		}
		c2, err := Compile(sc2, Defaults{})
		if err != nil {
			t.Fatalf("canonical form does not compile: %v\n%s", err, canon)
		}
		if c.Hash() != c2.Hash() {
			t.Fatalf("canonicalization unstable: %s != %s\n%s", c.Hash(), c2.Hash(), canon)
		}
	})
}
