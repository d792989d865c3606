package study

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"ituaval/internal/core"
	"ituaval/internal/reward"
)

// checkpointVersion is bumped whenever the on-disk format or the point-key
// derivation changes incompatibly; mismatched entries are quarantined rather
// than silently producing wrong resumes. Version 3 is an append-only JSONL
// format with a SHA-256 content checksum per entry, making checkpoints
// tamper-evident: a flipped bit, a torn write, or a stale-schema entry is
// detected on resume, the damaged file is quarantined, and every intact
// entry is salvaged.
const checkpointVersion = 3

// Checkpoint persists completed sweep points so an interrupted study can
// resume without recomputation. Each completed point appends one line
//
//	{"sum":"<sha256 of entry>","entry":{"v":3,"key":...,"point":{...}}}
//
// so a kill mid-write can damage at most the final line, and damage of any
// kind is evident: on resume every line's checksum and schema version are
// verified, damaged or stale lines are dropped, the original file is moved
// aside to <path>.corrupt-<n>, and a clean file holding the surviving
// entries is written in its place. Recovery reports what happened.
//
// Resume is exact, not approximate: a point's key fingerprints the full
// simulation spec (model parameters, horizon, measure names, replication
// schedule — including any precision targets and cap — and the effective
// root seed), and replication seeds are derived per-replication from the
// root seed, so a resumed study is bit-identical to an uninterrupted one.
type Checkpoint struct {
	mu       sync.Mutex
	path     string
	points   map[string]*PointResult
	truncate bool // first store replaces any pre-existing (unloaded) file
	recovery Recovery
	onSave   func() // test hook, called after each successful save
}

// Recovery describes what OpenCheckpoint found when it verified an existing
// checkpoint file. The zero value means the file was absent or fully intact.
type Recovery struct {
	// Quarantined is the path the damaged original was moved to, or "" if
	// every line verified.
	Quarantined string
	// Salvaged is the number of intact entries recovered from a damaged
	// file.
	Salvaged int
	// Dropped is the number of lines discarded for corruption: unparsable
	// JSON, a checksum mismatch, or a torn final line.
	Dropped int
	// Stale is the number of well-formed entries discarded because they
	// were written by a different checkpoint schema version (including
	// whole files in the pre-v3 format).
	Stale int
}

// Damaged reports whether the checkpoint file needed quarantine.
func (r Recovery) Damaged() bool { return r.Quarantined != "" }

func (r Recovery) String() string {
	if !r.Damaged() {
		return "checkpoint intact"
	}
	return fmt.Sprintf("checkpoint damaged: %d entries salvaged, %d corrupt and %d stale dropped; original quarantined at %s",
		r.Salvaged, r.Dropped, r.Stale, r.Quarantined)
}

// checkpointLine is the JSONL envelope: the checksum binds the exact entry
// bytes, so any mutation of the payload is detected.
type checkpointLine struct {
	Sum   string          `json:"sum"`
	Entry json.RawMessage `json:"entry"`
}

// checkpointEntry is one completed sweep point.
type checkpointEntry struct {
	V     int          `json:"v"`
	Key   string       `json:"key"`
	Point *PointResult `json:"point"`
}

// lineVerdict classifies one checkpoint line during verification.
type lineVerdict int

const (
	lineOK lineVerdict = iota
	// lineCorrupt: unparsable, checksum mismatch, or missing fields.
	lineCorrupt
	// lineStale: checksum (or legacy shape) is fine but the schema version
	// is not ours — honestly written by other code, not tampered with.
	lineStale
)

// decodeCheckpointLine verifies and decodes one line of a v3 checkpoint.
func decodeCheckpointLine(line []byte) (key string, pr *PointResult, v lineVerdict) {
	var l checkpointLine
	if err := json.Unmarshal(line, &l); err != nil {
		return "", nil, lineCorrupt
	}
	if l.Sum == "" || len(l.Entry) == 0 {
		// Not the envelope shape. A pre-v3 checkpoint was a single JSON
		// object {"version":N,...}; classify that as stale, not corrupt.
		var legacy struct {
			Version int `json:"version"`
		}
		if err := json.Unmarshal(line, &legacy); err == nil && legacy.Version != 0 {
			return "", nil, lineStale
		}
		return "", nil, lineCorrupt
	}
	sum := sha256.Sum256(l.Entry)
	if hex.EncodeToString(sum[:]) != l.Sum {
		return "", nil, lineCorrupt
	}
	var e checkpointEntry
	if err := json.Unmarshal(l.Entry, &e); err != nil {
		return "", nil, lineCorrupt
	}
	if e.V != checkpointVersion {
		return "", nil, lineStale
	}
	if e.Key == "" || e.Point == nil {
		return "", nil, lineCorrupt
	}
	return e.Key, e.Point, lineOK
}

// encodeCheckpointLine builds the checksummed JSONL line for one entry.
func encodeCheckpointLine(key string, pr *PointResult) ([]byte, error) {
	entry, err := json.Marshal(checkpointEntry{V: checkpointVersion, Key: key, Point: pr})
	if err != nil {
		return nil, fmt.Errorf("study: encoding checkpoint entry: %w", err)
	}
	sum := sha256.Sum256(entry)
	line, err := json.Marshal(checkpointLine{Sum: hex.EncodeToString(sum[:]), Entry: entry})
	if err != nil {
		return nil, fmt.Errorf("study: encoding checkpoint line: %w", err)
	}
	return append(line, '\n'), nil
}

// OpenCheckpoint opens a checkpoint backed by path. With resume true, an
// existing file is verified line by line and its intact points are skipped
// on the next run; a missing file is not an error (the study simply starts
// from scratch), and a damaged file is quarantined to <path>.corrupt-<n>
// with the surviving entries salvaged (inspect Recovery for details). With
// resume false the checkpoint starts empty and the file is replaced at the
// first completed point.
func OpenCheckpoint(path string, resume bool) (*Checkpoint, error) {
	ck := &Checkpoint{path: path, points: make(map[string]*PointResult)}
	if !resume {
		ck.truncate = true
		return ck, nil
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return ck, nil
	}
	if err != nil {
		return nil, fmt.Errorf("study: reading checkpoint: %w", err)
	}
	var good [][]byte
	var corrupt, stale int
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		key, pr, verdict := decodeCheckpointLine(line)
		switch verdict {
		case lineOK:
			ck.points[key] = pr
			good = append(good, line)
		case lineStale:
			stale++
		default:
			corrupt++
		}
	}
	if corrupt+stale > 0 {
		qpath, err := quarantine(path)
		if err != nil {
			return nil, err
		}
		if err := writeLines(path, good); err != nil {
			return nil, err
		}
		ck.recovery = Recovery{
			Quarantined: qpath,
			Salvaged:    len(ck.points),
			Dropped:     corrupt,
			Stale:       stale,
		}
	}
	return ck, nil
}

// Recovery reports what OpenCheckpoint found in the existing file.
func (c *Checkpoint) Recovery() Recovery {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recovery
}

// quarantine moves path aside to the first free <path>.corrupt-<n>.
func quarantine(path string) (string, error) {
	for n := 1; ; n++ {
		qpath := fmt.Sprintf("%s.corrupt-%d", path, n)
		if _, err := os.Lstat(qpath); err == nil {
			continue
		} else if !errors.Is(err, fs.ErrNotExist) {
			return "", fmt.Errorf("study: quarantining checkpoint: %w", err)
		}
		if err := os.Rename(path, qpath); err != nil {
			return "", fmt.Errorf("study: quarantining checkpoint: %w", err)
		}
		return qpath, nil
	}
}

// writeLines atomically replaces path with the given lines.
func writeLines(path string, lines [][]byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("study: writing checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("study: writing checkpoint: %w", err)
	}
	for _, line := range lines {
		if _, err := tmp.Write(append(line, '\n')); err != nil {
			return fail(err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("study: writing checkpoint: %w", err)
	}
	return nil
}

// Len reports the number of completed sweep points recorded.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.points)
}

// lookup returns the stored point for a key, if present.
func (c *Checkpoint) lookup(key string) (*PointResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pr, ok := c.points[key]
	return pr, ok
}

// store records a completed point and appends its checksummed line to the
// checkpoint file.
func (c *Checkpoint) store(key string, pr *PointResult) error {
	c.mu.Lock()
	c.points[key] = pr
	err := c.appendLine(key, pr)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if c.onSave != nil {
		c.onSave()
	}
	return nil
}

// appendLine writes one entry under c.mu. The first store of a
// non-resuming checkpoint truncates whatever file was there before.
func (c *Checkpoint) appendLine(key string, pr *PointResult) error {
	line, err := encodeCheckpointLine(key, pr)
	if err != nil {
		return err
	}
	flags := os.O_WRONLY | os.O_CREATE | os.O_APPEND
	if c.truncate {
		flags = os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(c.path, flags, 0o644)
	if err != nil {
		return fmt.Errorf("study: writing checkpoint: %w", err)
	}
	c.truncate = false
	if _, err := f.Write(line); err != nil {
		f.Close()
		return fmt.Errorf("study: writing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("study: writing checkpoint: %w", err)
	}
	return nil
}

// precKey encodes the replication schedule of a point: the fixed count, or
// the initial batch, precision targets and cap when precision mode is on. Two
// configs with equal schedules produce equal results for equal seeds.
func precKey(cfg Config) string {
	if !cfg.precisionMode() {
		return fmt.Sprintf("reps=%d", cfg.Reps)
	}
	return fmt.Sprintf("reps=%d|rel=%g|abs=%g|max=%d",
		cfg.Reps, cfg.TargetRelHW, cfg.TargetAbsHW, cfg.MaxReps)
}

// pointKey fingerprints everything that determines a sweep point's result:
// the model parameters, the horizon, the names of the measures (vars holds
// them per arm), the replication schedule, and the effective root seed. A
// pair's key carries both arms' parameters and measure lists. Two points
// with equal keys are guaranteed equal results, which is what makes resume
// exact.
func pointKey(cfg Config, p *PointSpec, vars [][]reward.Var) string {
	seed := cfg.Seed + p.SeedOffset
	if p.PairedWith == nil {
		return fmt.Sprintf("v%d|%s|seed=%d|until=%g|vars=%q|params=%s",
			checkpointVersion, precKey(cfg), seed, p.Until, varNames(vars[0]), paramsJSON(p.Params))
	}
	return fmt.Sprintf("v%d|paired|%s|seed=%d|until=%g|vars.a=%q|vars.b=%q|a=%s|b=%s",
		checkpointVersion, precKey(cfg), seed, p.Until, varNames(vars[0]), varNames(vars[1]),
		paramsJSON(p.Params), paramsJSON(*p.PairedWith))
}

// varNames lists the measure names of vars; the keys print them quoted,
// so no name can run into its neighbour.
func varNames(vars []reward.Var) []string {
	names := make([]string, len(vars))
	for i, v := range vars {
		names[i] = v.Name()
	}
	return names
}

func paramsJSON(p core.Params) []byte {
	pj, err := json.Marshal(p)
	if err != nil {
		// core.Params is a struct of scalars; Marshal cannot fail on it.
		panic(fmt.Sprintf("study: marshaling params: %v", err))
	}
	return pj
}
