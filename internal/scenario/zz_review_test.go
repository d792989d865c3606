package scenario

import (
	"fmt"
	"testing"
	"time"
)

func TestReviewTrailingGarbage(t *testing.T) {
	valid := `{"name":"a","horizon":1,"model":{"domains":1,"hostsPerDomain":1,"apps":1,"repsPerApp":1},"measures":[{"name":"m","kind":"hosts-up"}]}`
	if _, err := Parse([]byte(valid)); err != nil {
		t.Fatalf("valid: %v", err)
	}
	if _, err := Parse([]byte(valid + " }")); err == nil {
		t.Errorf("invalid trailing garbage ACCEPTED")
	} else {
		t.Logf("trailing garbage rejected: %v", err)
	}
}

// strideSpec is a one-host scenario sweeping recoveryRate over x (a JSON
// axis object), with a defaulted-stride policy series when series is set.
func strideSpec(x string, series bool) string {
	sweep := `"x":` + x
	if series {
		sweep += `,"series":{"param":"policy","strings":["domain-exclusion","host-exclusion"]}`
	}
	return `{"name":"a","horizon":1,"model":{"domains":1,"hostsPerDomain":1,"apps":1,"repsPerApp":1},"measures":[{"name":"m","kind":"hosts-up"}],"sweep":{` + sweep + `}}`
}

// Huge X seed strides: the default series stride (the smallest power of
// ten covering the X range) must not loop on uint64 wrap-around, and every
// accepted grid's offsets must be representable and distinct.
var strideInputs = []struct {
	x       string
	offsets []uint64 // the accepted sweepless-series grid's offsets
}{
	{`{"param":"recoveryRate","values":[0.1,0.2,0.3],"seedStride":5000000000000000000}`, []uint64{0, 5e18, 1e19}},
	{`{"param":"recoveryRate","values":[0.1,0.2],"seedStride":9000000000000000000}`, []uint64{0, 9e18}},
	{`{"param":"recoveryRate","values":[0.1],"seedStride":18446744073709551615}`, []uint64{0}},
}

func TestReviewStrideHang(t *testing.T) {
	for i, in := range strideInputs {
		for _, series := range []bool{false, true} {
			t.Run(fmt.Sprintf("%d/series=%v", i, series), func(t *testing.T) {
				sc, err := Parse([]byte(strideSpec(in.x, series)))
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				type result struct {
					c   *Compiled
					err error
				}
				done := make(chan result, 1)
				go func() {
					c, err := Compile(sc, Defaults{})
					done <- result{c, err}
				}()
				var r result
				select {
				case r = <-done:
				case <-time.After(3 * time.Second):
					t.Fatal("Compile HUNG (infinite loop in default series stride)")
				}
				var got []uint64
				if r.c != nil {
					for _, pt := range r.c.Points {
						got = append(got, pt.SeedOffset)
					}
				}
				if series {
					// Each X range exceeds 10^19, so no default series
					// stride fits in uint64.
					if r.err == nil {
						t.Fatalf("grid needing a series stride above 10^19 accepted with offsets %v", got)
					}
					return
				}
				if r.err != nil {
					t.Fatalf("representable grid rejected: %v", r.err)
				}
				if fmt.Sprint(got) != fmt.Sprint(in.offsets) {
					t.Fatalf("offsets %v, want %v", got, in.offsets)
				}
			})
		}
	}
}

// TestSeedOffsetOverflow: an explicit series stride or base offset whose
// sum leaves uint64 must be an error, not a wrapped (and possibly
// colliding) offset.
func TestSeedOffsetOverflow(t *testing.T) {
	for label, in := range map[string]string{
		"series stride": `{"name":"a","horizon":1,"model":{"domains":1,"hostsPerDomain":1,"apps":1,"repsPerApp":1},"measures":[{"name":"m","kind":"hosts-up"}],"sweep":{"x":{"param":"recoveryRate","values":[0.1,0.2]},"series":{"param":"policy","strings":["domain-exclusion","host-exclusion"],"seedStride":18446744073709551615}}}`,
		"base offset":   `{"name":"a","horizon":1,"model":{"domains":1,"hostsPerDomain":1,"apps":1,"repsPerApp":1},"measures":[{"name":"m","kind":"hosts-up"}],"sweep":{"x":{"param":"recoveryRate","values":[0.1,0.2]}},"run":{"seedOffset":18446744073709551615}}`,
	} {
		sc, err := Parse([]byte(in))
		if err != nil {
			t.Fatalf("%s: parse: %v", label, err)
		}
		if _, err := Compile(sc, Defaults{}); err == nil {
			t.Errorf("%s: overflowing seed offset accepted", label)
		}
	}
}
