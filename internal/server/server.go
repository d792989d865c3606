// Package server is the study-as-a-service layer: a long-running HTTP
// service that accepts declarative scenarios (internal/scenario), runs them
// on the flattened simulation worker pool (internal/study, internal/sim),
// streams progress while they run, and serves finished results from a
// content-addressed cache.
//
// The scenario's content address (SHA-256 of its canonical form) is the job
// id, the cache key, and the checkpoint key all at once. That single
// identity gives the service its three core guarantees:
//
//   - identical submissions coalesce: a scenario already running gains
//     subscribers instead of a second run, and a scenario already computed
//     is served from the cache, byte-identical to the fresh response;
//   - interrupted work resumes: queued specs persist to disk and running
//     jobs checkpoint per sweep point (hash-chained JSONL, internal/study),
//     so a restarted server re-queues the interrupted job and recomputes
//     only the unfinished points — with bit-identical results, because
//     seeds derive from the content-addressed spec, not from wall time;
//   - results are reproducible: two servers given the same scenario bytes
//     produce the same result bytes, which is what makes caching sound.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"ituaval/internal/scenario"
	"ituaval/internal/study"
)

// Config configures a Server. The zero value is usable with a DataDir.
type Config struct {
	// DataDir is the service's durable state: cache/ (finished results,
	// content-addressed), jobs/ (pending specs, re-queued on restart), and
	// checkpoints/ (per-job sweep checkpoints). Required.
	DataDir string
	// Workers bounds each job's simulation parallelism (0 = all cores).
	Workers int
	// JobConcurrency is the number of jobs running at once (default 2).
	JobConcurrency int
	// QueueDepth bounds the pending-job queue; submissions beyond it are
	// rejected with 503 (default 64).
	QueueDepth int
	// DefaultReps and DefaultSeed fill a scenario's run block when it
	// leaves them zero (defaults 2000 and 1, see scenario.Defaults).
	DefaultReps int
	DefaultSeed uint64
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)

	// testAfterPoint, when non-nil, runs synchronously after each point
	// event of a running job — a deterministic pause for shutdown tests.
	testAfterPoint func(jobID string, point int)
}

func (c Config) withDefaults() Config {
	if c.JobConcurrency <= 0 {
		c.JobConcurrency = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// Server is the study job service. Create with New, mount Handler on an
// http.Server, stop with Shutdown.
type Server struct {
	cfg Config
	mux *http.ServeMux

	baseCtx context.Context
	stop    context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*job
	queue  chan *job
	closed bool

	runners sync.WaitGroup
}

// New creates the service, re-queues any specs a previous server left in
// DataDir/jobs (interrupted work), and starts the job runners.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("server: Config.DataDir is required")
	}
	for _, d := range []string{cfg.cacheDir(), cfg.jobsDir(), cfg.checkpointDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	s := &Server{
		cfg:   cfg,
		jobs:  make(map[string]*job),
		queue: make(chan *job, cfg.QueueDepth),
	}
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	s.routes()
	if err := s.requeuePersisted(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.JobConcurrency; i++ {
		s.runners.Add(1)
		go s.runner()
	}
	return s, nil
}

func (c Config) cacheDir() string      { return filepath.Join(c.DataDir, "cache") }
func (c Config) jobsDir() string       { return filepath.Join(c.DataDir, "jobs") }
func (c Config) checkpointDir() string { return filepath.Join(c.DataDir, "checkpoints") }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown stops the service gracefully: no new submissions, running jobs
// are cancelled (their finished points are already checkpointed and their
// specs stay persisted, so the next server resumes them), and the runners
// drain. It returns ctx's error if the drain outlives it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if !alreadyClosed {
		s.stop()       // cancels every running job's context
		close(s.queue) // runners exit once the queue drains
	}
	done := make(chan struct{})
	go func() { s.runners.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// requeuePersisted re-queues the specs in DataDir/jobs — work a previous
// server accepted but did not finish.
func (s *Server) requeuePersisted() error {
	entries, err := os.ReadDir(s.cfg.jobsDir())
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(s.cfg.jobsDir(), name)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("server: %w", err)
		}
		j, _, _, err := s.admit(data)
		if err != nil {
			// A spec this server version no longer accepts must not wedge
			// startup forever; quarantine it and move on.
			s.logf("server: dropping persisted job %s: %v", name, err)
			_ = os.Rename(path, path+".rejected")
			continue
		}
		if j != nil {
			s.logf("server: resuming interrupted job %s", j.id)
		}
	}
	return nil
}

// admit parses, compiles, and enqueues one scenario. It returns the job
// (nil when the result was already cached), the job's content address, and
// whether the response is served from cache.
func (s *Server) admit(body []byte) (j *job, id string, cached bool, err error) {
	sc, err := scenario.Parse(body)
	if err != nil {
		return nil, "", false, err
	}
	c, err := scenario.Compile(sc, scenario.Defaults{Reps: s.cfg.DefaultReps, Seed: s.cfg.DefaultSeed})
	if err != nil {
		return nil, "", false, err
	}
	id = c.Hash()
	if s.cacheHas(id) {
		return nil, id, true, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, id, false, errShuttingDown
	}
	if prev, ok := s.jobs[id]; ok {
		state, _ := prev.snapshot()
		if state != stateFailed && state != stateCancelled && state != stateInterrupted {
			return prev, id, false, nil // coalesce onto the existing run
		}
		// A terminal non-success job resubmitted: fall through to retry.
	}
	j = newJob(id, c, c.Canonical())
	if err := s.persistSpec(j); err != nil {
		return nil, id, false, fmt.Errorf("%w: %w", errPersist, err)
	}
	select {
	case s.queue <- j:
	default:
		_ = os.Remove(s.specPath(id))
		return nil, id, false, errQueueFull
	}
	s.jobs[id] = j
	j.emit(queuedEvent{Type: "queued", Job: id})
	return j, id, false, nil
}

var (
	errQueueFull    = errors.New("job queue is full")
	errShuttingDown = errors.New("server is shutting down")
	errPersist      = errors.New("persisting the job spec")
)

func (s *Server) specPath(id string) string {
	return filepath.Join(s.cfg.jobsDir(), id+".json")
}

func (s *Server) checkpointPath(id string) string {
	return filepath.Join(s.cfg.checkpointDir(), id+".jsonl")
}

func (s *Server) cachePath(id string) string {
	return filepath.Join(s.cfg.cacheDir(), id+".json")
}

// persistSpec writes the job's canonical spec durably before the job is
// queued, so an accepted job survives a crash.
func (s *Server) persistSpec(j *job) error {
	return writeFileAtomic(s.specPath(j.id), j.canonical)
}

func (s *Server) cacheHas(id string) bool {
	_, err := os.Stat(s.cachePath(id))
	return err == nil
}

// cacheGet returns the cached result document, or nil.
func (s *Server) cacheGet(id string) []byte {
	data, err := os.ReadFile(s.cachePath(id))
	if err != nil {
		return nil
	}
	return data
}

// writeFileAtomic writes via a temp file + rename, so readers never see a
// torn result and a crash never leaves a half-written cache entry.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// runner consumes the job queue until Shutdown closes it.
func (s *Server) runner() {
	defer s.runners.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// resultDoc is the cached result document — the terminal payload of a job.
// It contains nothing non-deterministic (no timestamps, no host identity),
// so a fresh computation and a cache hit are byte-identical, and so are two
// independent servers given the same scenario bytes.
type resultDoc struct {
	Hash     string          `json:"hash"`
	Scenario json.RawMessage `json:"scenario"`
	Figure   *study.Figure   `json:"figure"`
}

// runJob executes one job to a terminal state. Finished sweep points
// checkpoint as they complete; on success the result document is written
// to the cache and the spec and checkpoint are retired.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	j.mu.Lock()
	if j.state == stateCancelled {
		// Cancelled while still queued; already tombstoned.
		j.mu.Unlock()
		return
	}
	j.cancel = cancel
	j.state = stateRunning
	j.mu.Unlock()
	if err := ctx.Err(); err != nil {
		// Shut down before the job started: leave the spec for the next
		// server.
		j.setState(stateInterrupted, err.Error())
		j.close()
		return
	}

	ck, err := study.OpenCheckpoint(s.checkpointPath(j.id), true)
	if err != nil {
		s.finishError(j, err)
		return
	}
	if rec := ck.Recovery(); rec.Damaged() {
		s.logf("server: job %s checkpoint recovery: %s", j.id, rec.String())
	}
	cfg := j.compiled.Config(study.Config{
		Workers:    s.cfg.Workers,
		Checkpoint: ck,
		Warnf: func(format string, args ...any) {
			s.logf("server: job %s: "+format, append([]any{j.id}, args...)...)
		},
	})
	j.emit(startedEvent{
		Type:      "started",
		Job:       j.id,
		Points:    len(j.compiled.Points),
		TotalReps: j.totalReps,
		Resumed:   ck.Len(),
	})

	// Progress granularity: ~200 events per job, never more than one per
	// replication.
	every := int64(1)
	if j.totalReps > 200 {
		every = j.totalReps / 200
	}
	hooks := study.SweepHooks{
		OnRep: func(int) {
			done := j.repsDone.Add(1)
			if done%every == 0 || done == j.totalReps {
				j.emit(progressEvent{Type: "progress", Job: j.id, RepsDone: done, TotalReps: j.totalReps})
			}
		},
		OnPoint: func(point int, pr *study.PointResult) {
			ev := pointEvent{
				Type:      "point",
				Job:       j.id,
				Point:     point,
				Label:     j.compiled.Points[point].Label,
				Measures:  make(map[string]measureEstimate, len(pr.Est)),
				Reps:      pr.Reps,
				Completed: pr.Completed,
				Failed:    pr.Failed,
				Skipped:   pr.Skipped,
			}
			for name, est := range pr.Est {
				ev.Measures[name] = measureEstimate{Mean: est.Mean, HalfWidth95: est.HalfWidth95, N: est.N}
			}
			j.emit(ev)
			if s.cfg.testAfterPoint != nil {
				s.cfg.testAfterPoint(j.id, point)
			}
		},
	}

	fig, err := j.compiled.Run(ctx, cfg, hooks)
	if err != nil {
		if ctx.Err() != nil {
			// Cancelled. Under server shutdown the spec stays persisted and
			// the checkpoint holds every finished point — the next server
			// resumes right here. An explicit DELETE retires both.
			if s.baseCtx.Err() != nil {
				j.setState(stateInterrupted, ctx.Err().Error())
				j.close()
				return
			}
			_ = os.Remove(s.specPath(j.id))
			_ = os.Remove(s.checkpointPath(j.id))
			j.setState(stateCancelled, "cancelled")
			j.emit(errorEvent{Type: "error", Job: j.id, Error: "cancelled"})
			j.close()
			return
		}
		_ = os.Remove(s.specPath(j.id))
		s.finishError(j, err)
		return
	}

	doc, err := json.Marshal(resultDoc{Hash: j.id, Scenario: j.canonical, Figure: fig})
	if err != nil {
		s.finishError(j, err)
		return
	}
	if err := writeFileAtomic(s.cachePath(j.id), doc); err != nil {
		s.finishError(j, err)
		return
	}
	_ = os.Remove(s.specPath(j.id))
	_ = os.Remove(s.checkpointPath(j.id))
	j.setState(stateDone, "")
	j.emit(resultEvent{Type: "result", Job: j.id, Cached: false, Result: doc})
	j.close()
	s.logf("server: job %s done (%d points)", j.id, len(j.compiled.Points))
}

func (s *Server) finishError(j *job, err error) {
	s.logf("server: job %s failed: %v", j.id, err)
	j.setState(stateFailed, err.Error())
	j.emit(errorEvent{Type: "error", Job: j.id, Error: err.Error()})
	j.close()
}

// cancelJob cancels a queued or running job on user request.
func (s *Server) cancelJob(j *job) {
	j.mu.Lock()
	cancel := j.cancel
	queued := j.state == stateQueued
	j.mu.Unlock()
	if cancel != nil {
		cancel()
		return
	}
	if queued {
		// Not picked up yet: mark it; the runner will see the cancelled
		// state and skip. Simplest correct form: flag via state and let
		// runJob's ctx check handle running ones. For queued jobs we retire
		// the spec now and tombstone the state.
		_ = os.Remove(s.specPath(j.id))
		j.setState(stateCancelled, "cancelled")
		j.emit(errorEvent{Type: "error", Job: j.id, Error: "cancelled"})
		j.close()
	}
}
