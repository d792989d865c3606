package rsm

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/groupcomm"
	"ituaval/internal/rng"
)

var updateRSMGolden = flag.Bool("update-rsm-golden", false,
	"rewrite testdata/run_golden.json from the current transport and replica group")

const rsmGoldenPath = "testdata/run_golden.json"

// goldenSpec is one pinned live run. Every spec runs at Workers 1 and 2 and
// must reproduce the same lines at both.
type goldenSpec struct {
	name string
	spec Spec
}

func goldenSpecs() []goldenSpec {
	wide := func() core.Params {
		p := smallParams()
		p.HostsPerDomain, p.NumDomains, p.RepsPerApp = 2, 4, 7
		return p
	}
	hostExcl := smallParams()
	hostExcl.Policy = core.HostExclusion
	fig5 := core.DefaultParams()
	fig5.NumDomains, fig5.HostsPerDomain, fig5.NumApps, fig5.RepsPerApp = 10, 3, 4, 7
	fig5.CorruptionMult = 5
	fig5.DomainSpreadRate = 4
	fig5.Policy = core.DomainExclusion
	faults := wide()
	faults.PartitionRate, faults.PartitionHealRate = 2, 2
	faults.CampaignRate, faults.CampaignSize, faults.CampaignProb = 0.5, 2, 0.5
	faults.RepairCrew = 1
	return []goldenSpec{
		{"oracle-2x1-domain-exclusion", Spec{Params: smallParams(), T: 6, Reps: 80, Seed: 7}},
		{"oracle-2x1-host-exclusion", Spec{Params: hostExcl, T: 6, Reps: 80, Seed: 7}},
		{"oracle-4x2x7", Spec{Params: wide(), T: 6, Reps: 80, Seed: 7}},
		{"fig5-10x3x4x7", Spec{Params: fig5, T: 10, Reps: 20, Seed: 3}},
		{"random-liar", Spec{Params: wide(), T: 6, Reps: 40, Seed: 23,
			Behavior: func(_ int, rs *rng.Stream) groupcomm.Behavior {
				return groupcomm.RandomLiar{Stream: rs, Values: []string{"byz", "v1", "x"}}
			}}},
		// Non-zero divergences here are expected: on f >= 1 groups the
		// model only approximates partition relaying (see the integrity
		// package's TestCrossCheckFaultsFull), and the golden pins them.
		{"faults-partition-heal", Spec{Params: faults, T: 6, Reps: 40, Seed: 29}},
	}
}

// runLines flattens a live result into bit-exact strings: the probe and
// failure accounting and the float bits of every accumulator's mean.
func runLines(res *Result) []string {
	kinds := make([]string, 0, len(res.Failures))
	for k := range res.Failures {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fails := ""
	for _, k := range kinds {
		fails += fmt.Sprintf("|%s=%d", k, res.Failures[k])
	}
	out := []string{fmt.Sprintf("reps=%d|failed=%d|probes=%d|divergences=%d%s",
		res.Reps, res.Failed, res.Probes, res.Divergences, fails)}
	for _, a := range []struct {
		name string
		mean float64
	}{
		{"unavail", res.Unavail.Mean()}, {"unrel", res.Unrel.Mean()}, {"excl", res.FracExcl.Mean()},
		{"pred-unavail", res.PredUnavail.Mean()}, {"pred-unrel", res.PredUnrel.Mean()},
	} {
		out = append(out, fmt.Sprintf("%s=%016x", a.name, math.Float64bits(a.mean)))
	}
	return out
}

// transportDigest runs a seeded random script against fresh transports —
// Register, urgent and delayed Send (client traffic included), loss,
// ExcludeHost, Unregister, SetPartition, AdvanceIdle and DeliverBatch —
// and hashes every delivered (from, to, payload, Now()) plus each
// transport's final Sent/Dropped/Delivered counters.
func transportDigest() string {
	h := sha256.New()
	put := func(xs ...uint64) {
		var b [8]byte
		for _, x := range xs {
			binary.BigEndian.PutUint64(b[:], x)
			h.Write(b[:])
		}
	}
	script := rng.New(42)
	const nodes, hosts = 12, 8
	for seg := 0; seg < 8; seg++ {
		tr := NewTransport(rng.New(1000+uint64(seg)), 1e-6, []float64{0, 0.1}[seg%2])
		for id := 0; id < nodes; id++ {
			tr.Register(NodeID(id), id%hosts)
		}
		node := func() NodeID {
			if script.Intn(8) == 0 {
				return ClientID
			}
			return NodeID(script.Intn(nodes))
		}
		deliver := func() {
			for _, p := range tr.DeliverBatch() {
				put(uint64(int64(p.From)), uint64(int64(p.To)), uint64(len(p.Payload)), math.Float64bits(tr.now))
				h.Write(p.Payload)
			}
		}
		for op := 0; op < 600; op++ {
			switch k := script.Intn(100); {
			case k < 50:
				payload := make([]byte, script.Intn(24))
				for i := range payload {
					payload[i] = byte(script.Uint64())
				}
				tr.Send(node(), node(), payload, script.Bernoulli(0.2))
			case k < 54:
				tr.Register(NodeID(script.Intn(nodes)), script.Intn(hosts))
			case k < 56:
				tr.Unregister(NodeID(script.Intn(nodes)))
			case k < 57:
				tr.ExcludeHost(script.Intn(hosts))
			case k < 60:
				if bit := script.Intn(4); bit < 3 {
					tr.SetPartition(func(a, b int) bool { return (a>>bit)&1 != (b>>bit)&1 })
				} else {
					tr.SetPartition(nil)
				}
			case k < 63:
				tr.AdvanceIdle(1e-6 * script.Float64())
			default:
				deliver()
			}
		}
		for !tr.Quiet() {
			deliver()
		}
		put(uint64(tr.Sent), uint64(tr.Dropped), uint64(tr.Delivered))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunGolden pins the live arm bit for bit: every golden spec at
// Workers 1 and 2 must reproduce the probe and failure accounting and the
// mean bits of testdata/run_golden.json, and the transport script must
// reproduce its transcript digest. The golden was captured from the
// container/heap transport and map-based probe state, so any change to
// delivery order, RNG draws or probe outcomes shows here.
func TestRunGolden(t *testing.T) {
	got := map[string][]string{"transport-digest": {transportDigest()}}
	for _, gs := range goldenSpecs() {
		var first []string
		for _, workers := range []int{1, 2} {
			spec := gs.spec
			spec.Workers = workers
			res, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", gs.name, workers, err)
			}
			lines := runLines(res)
			if first == nil {
				first = lines
			} else if fmt.Sprint(lines) != fmt.Sprint(first) {
				t.Fatalf("%s: workers=2 gives %v, workers=1 gave %v", gs.name, lines, first)
			}
		}
		got[gs.name] = first
	}
	if *updateRSMGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(rsmGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(rsmGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(rsmGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-rsm-golden): %v", err)
	}
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d entries, run produced %d", len(want), len(got))
	}
	for name, g := range got {
		if w := want[name]; fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("%s:\n  got  %v\n  want %v", name, g, w)
		}
	}
}
