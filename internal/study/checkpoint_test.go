package study

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/reward"
)

// testResume interrupts runner after two completed points, then resumes it
// from the checkpoint file and requires the resumed figure to be
// bit-identical to an uninterrupted run — the acceptance criterion for the
// whole checkpoint/resume design (replication seeds are derived per point
// and per replication from the root seed, and any sequential precision
// schedule depends only on the spec, so skipping completed points changes
// nothing downstream).
func testResume(t *testing.T, runner Runner, cfg Config, totalPoints int) {
	t.Helper()
	ref, err := runner(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "study.ckpt.json")
	ck, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ck.onSave = func() {
		if ck.Len() >= 2 {
			cancel()
		}
	}
	interruptedCfg := cfg
	interruptedCfg.Checkpoint = ck
	if _, err := runner(ctx, interruptedCfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	done := ck.Len()
	if done < 2 {
		t.Fatalf("only %d points checkpointed before cancellation", done)
	}
	if done >= totalPoints {
		t.Fatalf("all %d points completed; cancellation never took effect", totalPoints)
	}

	ck2, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Len() != done {
		t.Fatalf("reloaded checkpoint has %d points, want %d", ck2.Len(), done)
	}
	resumedCfg := cfg
	resumedCfg.Checkpoint = ck2
	got, err := runner(context.Background(), resumedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("resumed figure differs from uninterrupted run:\nref: %+v\ngot: %+v", ref, got)
	}
	if ck2.Len() != totalPoints {
		t.Fatalf("resumed run checkpointed %d points, want all %d", ck2.Len(), totalPoints)
	}
}

func TestCheckpointResume(t *testing.T) {
	testResume(t, AblationDetectionRate, Config{Reps: 60, Seed: 11, Workers: 2}, 6)
}

// TestCheckpointResumePrecision is the precision-mode variant: every sweep
// point grows its replication count sequentially toward a relative
// half-width target, and an interrupted sweep must still resume
// bit-identically (the batch schedule depends only on the spec, never on
// timing or which points were restored).
func TestCheckpointResumePrecision(t *testing.T) {
	cfg := Config{Reps: 40, Seed: 11, Workers: 2, TargetRelHW: 0.25, MaxReps: 640}
	testResume(t, AblationDetectionRate, cfg, 6)
}

// TestCheckpointResumePaired covers the CRN-paired sweep: a paired point
// flattens a two-configuration comparison into one checkpoint entry, and
// resume must restore deltas, marginals, correlations, and replication
// accounting bit-identically.
func TestCheckpointResumePaired(t *testing.T) {
	testResume(t, Fig5Paired, Config{Reps: 48, Seed: 11, Workers: 2}, 6)
}

// TestCheckpointSkipsSimulation verifies a fully checkpointed study is
// answered from the file alone: rerunning with the loaded checkpoint must
// not add points and must return the same figure.
func TestCheckpointSkipsSimulation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "study.ckpt.json")
	ck, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Reps: 40, Seed: 5, Checkpoint: ck}
	first, err := AblationDetectionRate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := ck.Len()

	ck2, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	stores := 0
	ck2.onSave = func() { stores++ }
	cfg.Checkpoint = ck2
	second, err := AblationDetectionRate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stores != 0 {
		t.Fatalf("fully checkpointed rerun stored %d new points", stores)
	}
	if ck2.Len() != n {
		t.Fatalf("point count changed: %d -> %d", n, ck2.Len())
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("checkpointed rerun returned a different figure")
	}
}

// armSweep is one point per engine on the live study's spread-0
// configuration, whose exact chain is small.
func armSweep() []PointSpec {
	pt := liveGrid()[0]
	pts := []PointSpec{pt}
	for i, arm := range []Arm{ArmDirect, ArmLive, ArmExact} {
		pts = append(pts, onArm(pts[:1], arm, uint64(i+1))...)
	}
	return pts
}

// armSweepCSV lays out a sweep's results as a figure, one series per
// point, and renders it.
func armSweepCSV(t *testing.T, prs []*PointResult) []byte {
	t.Helper()
	fig := &Figure{ID: "arms", Panels: []Panel{{ID: "unavail"}, {ID: "unrel"}}}
	for i := range fig.Panels {
		for pi, pr := range prs {
			s := Series{Name: Arm(pi).String()}
			AppendPoint(&s, 0, fig.Panels[i].ID, pr)
			fig.Panels[i].Series = append(fig.Panels[i].Series, s)
		}
	}
	var b bytes.Buffer
	if err := fig.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCheckpointRestoresEveryArm: a sweep with a SAN, a direct, a live and
// an exact point checkpoints all four; rerun on the reloaded checkpoint
// under a cancelled context, it restores every point without calling an
// engine and gives the same results, counts and figure bytes.
func TestCheckpointRestoresEveryArm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "arms.ckpt")
	ck, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Reps: 40, Seed: 5, Workers: 2, Checkpoint: ck}
	first, err := RunSweep(context.Background(), cfg, armSweep(), SweepHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if ck.Len() != 4 {
		t.Fatalf("checkpointed %d points, want all 4", ck.Len())
	}
	if first[2].Counts["probes"] == 0 || first[3].Counts["states"] == 0 {
		t.Fatalf("live or exact counts missing: %v, %v", first[2].Counts, first[3].Counts)
	}

	ck2, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	stores := 0
	ck2.onSave = func() { stores++ }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	restored, reps := 0, 0
	cfg.Checkpoint = ck2
	second, err := RunSweep(ctx, cfg, armSweep(), SweepHooks{
		OnRep:   func(int) { reps++ },
		OnPoint: func(int, *PointResult) { restored++ },
	})
	if err != nil {
		t.Fatalf("restoring run called an engine: %v", err)
	}
	if restored != 4 || reps != 0 || stores != 0 {
		t.Fatalf("restoring run: %d points restored, %d replications, %d stores; want 4, 0, 0", restored, reps, stores)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("restored results differ:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if a, b := armSweepCSV(t, first), armSweepCSV(t, second); !bytes.Equal(a, b) {
		t.Fatalf("restored figure differs:\n%s\n%s", a, b)
	}
}

// TestCheckpointKeyDiscriminates ensures the point key fingerprints
// everything that determines a result, so a checkpoint written under one
// configuration can never satisfy another.
func TestCheckpointKeyDiscriminates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "study.ckpt.json")
	ck, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Reps: 30, Seed: 5, Checkpoint: ck}
	if _, err := AblationDetectionRate(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	n := ck.Len()

	for name, cfg := range map[string]Config{
		"reps": {Reps: 31, Seed: 5, Checkpoint: ck},
		"seed": {Reps: 30, Seed: 6, Checkpoint: ck},
	} {
		before := ck.Len()
		if _, err := AblationDetectionRate(context.Background(), cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ck.Len() != before+n {
			t.Fatalf("%s change reused checkpointed points: %d -> %d", name, before, ck.Len())
		}
	}

	// The same point measuring something else — a sweep point or a paired
	// one — must not restore the other measure's entry.
	pt := liveGrid()[0]
	measure := func(name string) func(m *core.Model) []reward.Var {
		return func(m *core.Model) []reward.Var {
			if name == "u" {
				return []reward.Var{m.Unavailability("u", 0, 0, pt.Until)}
			}
			return []reward.Var{m.Unreliability("r", 0, pt.Until)}
		}
	}
	for _, name := range []string{"u", "r"} {
		p := pt
		p.Vars = measure(name)
		before := ck.Len()
		prs, err := RunSweep(context.Background(), base, []PointSpec{p}, SweepHooks{})
		if err != nil {
			t.Fatal(err)
		}
		if e := prs[0].Est[name]; ck.Len() != before+1 || e.N == 0 {
			t.Fatalf("measure %s: restored another measure's entry (checkpoint %d -> %d, %s n=%d)",
				name, before, ck.Len(), name, e.N)
		}
		before = ck.Len()
		p.PairedWith = &p.Params
		prs, err = RunSweep(context.Background(), base, []PointSpec{p}, SweepHooks{})
		if err != nil {
			t.Fatal(err)
		}
		if e := prs[0].Est[name+".delta"]; ck.Len() != before+1 || e.N == 0 {
			t.Fatalf("paired measure %s: restored another measure's entry (checkpoint %d -> %d, %s.delta n=%d)",
				name, before, ck.Len(), name, e.N)
		}
	}
}

// writeCheckpointLines builds a checkpoint file holding n valid entries and
// returns the path plus the individual lines (without trailing newlines).
func writeCheckpointLines(t *testing.T, dir string, n int) (string, [][]byte) {
	t.Helper()
	path := filepath.Join(dir, "study.ckpt.json")
	var buf []byte
	var lines [][]byte
	for i := 0; i < n; i++ {
		pr := &PointResult{Reps: 10 + i, Completed: 10 + i}
		line, err := encodeCheckpointLine(fmt.Sprintf("point-%d", i), pr)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, bytes.TrimSuffix(line, []byte("\n")))
		buf = append(buf, line...)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, lines
}

// TestOpenCheckpointMissingAndFresh: absent files and resume=false both
// yield an empty checkpoint without touching anything on disk.
func TestOpenCheckpointMissingAndFresh(t *testing.T) {
	dir := t.TempDir()

	ck, err := OpenCheckpoint(filepath.Join(dir, "absent.json"), true)
	if err != nil || ck.Len() != 0 {
		t.Fatalf("missing file: ck=%v err=%v", ck, err)
	}
	if ck.Recovery().Damaged() {
		t.Fatal("missing file reported as damaged")
	}

	// Without resume an existing file is ignored, not loaded — and not
	// quarantined either: it is simply replaced at the first store.
	path, _ := writeCheckpointLines(t, dir, 3)
	ck, err = OpenCheckpoint(path, false)
	if err != nil || ck.Len() != 0 {
		t.Fatalf("resume=false: ck.Len()=%d err=%v", ck.Len(), err)
	}
	if err := ck.store("k", &PointResult{}); err != nil {
		t.Fatal(err)
	}
	reck, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if reck.Len() != 1 {
		t.Fatalf("first store did not replace the stale file: %d points", reck.Len())
	}
}

// TestCheckpointQuarantine exercises every damage class the verifier must
// catch: a torn (truncated) final line, a flipped byte inside an entry, a
// pre-v3 whole-file checkpoint, and a checksum-valid entry carrying a
// foreign schema version. In each case the damaged file is quarantined to
// <path>.corrupt-<n>, the intact entries are salvaged, and Recovery says so.
func TestCheckpointQuarantine(t *testing.T) {
	cases := []struct {
		name     string
		damage   func(t *testing.T, lines [][]byte) []byte
		salvaged int
		dropped  int
		stale    int
	}{
		{
			name: "truncated-final-line",
			damage: func(t *testing.T, lines [][]byte) []byte {
				// Simulate a kill mid-append: last line cut in half.
				buf := bytes.Join(lines[:2], []byte("\n"))
				buf = append(buf, '\n')
				return append(buf, lines[2][:len(lines[2])/2]...)
			},
			salvaged: 2, dropped: 1,
		},
		{
			name: "flipped-byte",
			damage: func(t *testing.T, lines [][]byte) []byte {
				// Flip one byte inside the second entry's payload: the
				// envelope still parses but the checksum no longer matches.
				mut := append([]byte(nil), lines[1]...)
				i := bytes.Index(mut, []byte(`"point"`))
				if i < 0 {
					t.Fatal("no point field to corrupt")
				}
				mut[i+10] ^= 0x01
				return bytes.Join([][]byte{lines[0], mut, lines[2]}, []byte("\n"))
			},
			salvaged: 2, dropped: 1,
		},
		{
			name: "stale-whole-file-v2",
			damage: func(t *testing.T, lines [][]byte) []byte {
				return []byte(`{"version":2,"points":{}}`)
			},
			salvaged: 0, stale: 1,
		},
		{
			name: "checksum-valid-version-mismatch",
			damage: func(t *testing.T, lines [][]byte) []byte {
				// An entry with a correct checksum but a foreign schema
				// version: honestly written by other code, still unusable.
				entry := []byte(`{"v":99,"key":"point-x","point":{"X":1,"Reps":5}}`)
				sum := sha256.Sum256(entry)
				line, err := json.Marshal(checkpointLine{
					Sum: hex.EncodeToString(sum[:]), Entry: entry,
				})
				if err != nil {
					t.Fatal(err)
				}
				return bytes.Join([][]byte{lines[0], line, lines[2]}, []byte("\n"))
			},
			salvaged: 2, stale: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path, lines := writeCheckpointLines(t, dir, 3)
			if err := os.WriteFile(path, tc.damage(t, lines), 0o644); err != nil {
				t.Fatal(err)
			}
			ck, err := OpenCheckpoint(path, true)
			if err != nil {
				t.Fatal(err)
			}
			rec := ck.Recovery()
			if !rec.Damaged() {
				t.Fatal("damage not detected")
			}
			want := Recovery{
				Quarantined: path + ".corrupt-1",
				Salvaged:    tc.salvaged,
				Dropped:     tc.dropped,
				Stale:       tc.stale,
			}
			if rec != want {
				t.Fatalf("recovery = %+v, want %+v", rec, want)
			}
			if ck.Len() != tc.salvaged {
				t.Fatalf("salvaged %d points, want %d", ck.Len(), tc.salvaged)
			}
			if _, err := os.Stat(rec.Quarantined); err != nil {
				t.Fatalf("quarantine file: %v", err)
			}
			// The rewritten file must verify clean on a second open.
			reck, err := OpenCheckpoint(path, true)
			if err != nil {
				t.Fatal(err)
			}
			if reck.Recovery().Damaged() || reck.Len() != tc.salvaged {
				t.Fatalf("rewritten file not clean: %+v, %d points",
					reck.Recovery(), reck.Len())
			}
		})
	}
}

// TestCheckpointQuarantineNumbering: a second quarantine must not clobber
// the first — it picks the next free .corrupt-<n> suffix.
func TestCheckpointQuarantineNumbering(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= 2; i++ {
		path := filepath.Join(dir, "study.ckpt.json")
		if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := OpenCheckpoint(path, true)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%s.corrupt-%d", path, i)
		if got := ck.Recovery().Quarantined; got != want {
			t.Fatalf("quarantine %d went to %s, want %s", i, got, want)
		}
	}
}

// TestCheckpointResumeAfterCorruption is the end-to-end acceptance test:
// run a study to completion under a checkpoint, flip one byte in one entry,
// and resume. The damaged file must be quarantined, every intact point
// salvaged and skipped, only the damaged point recomputed, and the resumed
// figure bit-identical to the uninterrupted run.
func TestCheckpointResumeAfterCorruption(t *testing.T) {
	cfg := Config{Reps: 40, Seed: 11, Workers: 2}
	ref, err := AblationDetectionRate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "study.ckpt.json")
	ck, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	full := cfg
	full.Checkpoint = ck
	if _, err := AblationDetectionRate(context.Background(), full); err != nil {
		t.Fatal(err)
	}
	total := ck.Len()
	if total < 3 {
		t.Fatalf("study checkpointed only %d points", total)
	}

	// Flip a byte in the middle entry's payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != total {
		t.Fatalf("%d lines on disk, %d points stored", len(lines), total)
	}
	victim := lines[total/2]
	i := bytes.Index(victim, []byte(`"point"`))
	if i < 0 {
		t.Fatal("no point field in checkpoint line")
	}
	victim[i+10] ^= 0x01
	if err := os.WriteFile(path, append(bytes.Join(lines, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	rec := ck2.Recovery()
	if !rec.Damaged() || rec.Salvaged != total-1 || rec.Dropped != 1 {
		t.Fatalf("recovery = %+v, want %d salvaged and 1 dropped", rec, total-1)
	}
	if _, err := os.Stat(rec.Quarantined); err != nil {
		t.Fatalf("quarantine file: %v", err)
	}

	stores := 0
	ck2.onSave = func() { stores++ }
	resumed := cfg
	resumed.Checkpoint = ck2
	got, err := AblationDetectionRate(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if stores != 1 {
		t.Fatalf("resume recomputed %d points, want only the damaged 1", stores)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("resumed figure differs from uninterrupted run:\nref: %+v\ngot: %+v", ref, got)
	}
}

// FuzzCheckpointLine hardens the resume path: whatever bytes end up in a
// checkpoint line — torn writes, bit rot, hostile edits — the verifier must
// classify them without panicking, and must never accept a line whose
// checksum does not bind its payload.
func FuzzCheckpointLine(f *testing.F) {
	good, err := encodeCheckpointLine("point-0", &PointResult{Reps: 40, Completed: 40})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.TrimSuffix(good, []byte("\n")))
	f.Add([]byte(`{"version":2,"points":{}}`))
	f.Add([]byte(`{"sum":"","entry":{}}`))
	f.Add([]byte("{not json"))
	f.Fuzz(func(t *testing.T, line []byte) {
		key, pr, verdict := decodeCheckpointLine(line)
		if verdict != lineOK {
			return
		}
		if key == "" || pr == nil {
			t.Fatalf("accepted line with key=%q pr=%v", key, pr)
		}
		// An accepted line must carry a checksum that re-verifies: the sum
		// field must bind the exact entry bytes.
		var l checkpointLine
		if err := json.Unmarshal(line, &l); err != nil {
			t.Fatalf("accepted unparsable line: %v", err)
		}
		sum := sha256.Sum256(l.Entry)
		if hex.EncodeToString(sum[:]) != l.Sum {
			t.Fatal("accepted line whose checksum does not match its entry")
		}
	})
}
