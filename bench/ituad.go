package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"ituaval/internal/scenario"
	"ituaval/internal/server"
	"ituaval/internal/study"
)

// service is one job server on a loopback listener, and one closed-loop
// client that holds a single connection and sends its next request only
// after the previous one completed.
type service struct {
	srv  *server.Server
	hs   *httptest.Server
	http *http.Client
}

// startService starts a server over dir, running one job at a time, and
// waits until it answers.
func startService(dir string) (*service, error) {
	srv, err := server.New(server.Config{DataDir: dir, Workers: workers, JobConcurrency: 1})
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:  srv,
		hs:   httptest.NewServer(srv.Handler()),
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
	if _, err := s.get("/v1/healthz"); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *service) close() error {
	s.http.CloseIdleConnections()
	s.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// submit posts a scenario and returns the job's id, whether the server
// answered from its cache, and the HTTP status.
func (s *service) submit(doc []byte) (id string, cached bool, status int, err error) {
	resp, err := s.http.Post(s.hs.URL+"/v1/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		return "", false, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", false, 0, err
	}
	var st struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return "", false, resp.StatusCode, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return st.ID, st.Cached, resp.StatusCode, nil
}

func (s *service) get(path string) ([]byte, error) {
	resp, err := s.http.Get(s.hs.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// stream follows a job's NDJSON event stream to its end and returns the
// result document of its terminal event. onEvent, if not nil, sees each
// event's type as it arrives.
func (s *service) stream(id string, onEvent func(typ string)) (doc []byte, events int, err error) {
	resp, err := s.http.Get(s.hs.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("stream %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		events++
		var ev struct {
			Type   string          `json:"type"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, events, fmt.Errorf("stream %s: %w", id, err)
		}
		if onEvent != nil {
			onEvent(ev.Type)
		}
		switch ev.Type {
		case "result":
			doc = ev.Result
		case "error":
			return nil, events, fmt.Errorf("job %s failed: %s", id, ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, events, err
	}
	if doc == nil {
		return nil, events, fmt.Errorf("stream %s ended without a result", id)
	}
	return doc, events, nil
}

// jobSource renders one scenario of the repository as job documents, each
// with its own drawn seed.
type jobSource struct {
	e        *env
	workload string
	sc       *scenario.Scenario
	reps     int
}

func loadJobSource(e *env, workload, file string, reps int) (*jobSource, error) {
	data, err := os.ReadFile(e.scenarioPath(file))
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Parse(data)
	if err != nil {
		return nil, err
	}
	return &jobSource{e: e, workload: workload, sc: sc, reps: reps}, nil
}

// doc returns job k's scenario document.
func (j *jobSource) doc(k uint64) ([]byte, error) {
	sc := *j.sc
	sc.Run.Reps = j.reps
	sc.Run.Seed = simSeed(j.e.inputs(j.workload, k))
	return json.Marshal(&sc)
}

// resultDigest checks a result document: it names its job, and its figure
// passes figureDigest.
func resultDigest(doc []byte, id string, reps int) (digest, error) {
	var r struct {
		Hash   string        `json:"hash"`
		Figure *study.Figure `json:"figure"`
	}
	if err := json.Unmarshal(doc, &r); err != nil {
		return digest{}, fmt.Errorf("result %s: %w", id, err)
	}
	if r.Hash != id || r.Figure == nil {
		return digest{}, fmt.Errorf("result of job %s names job %q", id, r.Hash)
	}
	return figureDigest(r.Figure, reps)
}

// checkFresh checks the answer to a submission no earlier one matches.
func checkFresh(id string, cached bool, status int) error {
	if status != http.StatusAccepted || cached {
		return fmt.Errorf("fresh job %s: status %d, cached %v; want 202, not cached", id, status, cached)
	}
	return nil
}

// checkJob checks a finished job: the streamed and fetched result documents
// are the same bytes, and the result passes resultDigest.
func checkJob(id string, streamed, fetched []byte, reps int) (digest, error) {
	if !bytes.Equal(streamed, fetched) {
		return digest{}, fmt.Errorf("job %s: streamed and fetched results differ", id)
	}
	return resultDigest(fetched, id, reps)
}

func resultPath(id string) string { return "/v1/jobs/" + id + "/result" }

// freshJob submits a job no earlier submission matches, follows its stream
// to the result, and fetches the result.
func freshJob(svc *service, doc []byte, reps int) (id string, fetched []byte, d digest, err error) {
	id, cached, status, err := svc.submit(doc)
	if err != nil {
		return "", nil, digest{}, err
	}
	if err := checkFresh(id, cached, status); err != nil {
		return "", nil, digest{}, err
	}
	streamed, _, err := svc.stream(id, nil)
	if err != nil {
		return "", nil, digest{}, err
	}
	if fetched, err = svc.get(resultPath(id)); err != nil {
		return "", nil, digest{}, err
	}
	d, err = checkJob(id, streamed, fetched, reps)
	return id, fetched, d, err
}

type jobsSize struct {
	reps      int
	ladderOps int // repetitions of each layer-ladder measurement
}

// jobsWorkload submits distinct jobs, one at a time, so every job computes,
// checkpoints its points and writes the cache.
func jobsWorkload(sz jobsSize) *workload {
	return &workload{
		name: "ituad-jobs",
		setup: func(e *env) (instance, error) {
			src, err := loadJobSource(e, "ituad-jobs", "live.json", sz.reps)
			if err != nil {
				return nil, err
			}
			svc, err := startService(filepath.Join(e.work, "ituad-jobs"))
			if err != nil {
				return nil, err
			}
			return &jobs{e: e, sz: sz, src: src, svc: svc}, nil
		},
	}
}

type jobs struct {
	e   *env
	sz  jobsSize
	src *jobSource
	svc *service
	// firstDoc and firstDigest are the first traced job's scenario and
	// result, which the ladder recomputes without the server.
	firstDoc    []byte
	firstDigest digest
}

// tracedJobs offsets the job index of traced operations, so a traced job
// never hits the cache entry of an untraced one.
const tracedJobs = 1 << 40

func (j *jobs) op(i int) (digest, error) {
	doc, err := j.src.doc(uint64(i))
	if err != nil {
		return digest{}, err
	}
	_, _, d, err := freshJob(j.svc, doc, j.sz.reps)
	return d, err
}

// traced splits a job into its submission, the wait until the stream
// reports it started, its run until the result event, and the result fetch.
func (j *jobs) traced(i int, root *span) (digest, error) {
	doc, err := j.src.doc(tracedJobs + uint64(i))
	if err != nil {
		return digest{}, err
	}
	sp := root.child("server.submit")
	id, cached, status, err := j.svc.submit(doc)
	sp.end()
	if err != nil {
		return digest{}, err
	}
	if err := checkFresh(id, cached, status); err != nil {
		return digest{}, err
	}
	wait := root.child("server.queue_wait")
	var run *span
	ran := false
	streamed, events, err := j.svc.stream(id, func(typ string) {
		switch {
		case typ == "started" && run == nil:
			wait.end()
			run = root.child("server.run")
		case typ == "result" && run != nil:
			run.end()
			ran = true
		}
	})
	switch {
	case run == nil:
		wait.end()
	case !ran:
		run.end()
	default:
		run.count("stream_events", float64(events))
	}
	if err != nil {
		return digest{}, err
	}
	if !ran {
		return digest{}, fmt.Errorf("job %s: stream reported no start before its result", id)
	}
	sp = root.child("server.result_fetch")
	fetched, err := j.svc.get(resultPath(id))
	sp.end()
	if err != nil {
		return digest{}, err
	}
	sp.count("result_bytes", float64(len(fetched)))
	d, err := checkJob(id, streamed, fetched, j.sz.reps)
	if err == nil && j.firstDoc == nil {
		j.firstDoc, j.firstDigest = doc, d
	}
	return d, err
}

func (j *jobs) repeatable() bool { return false }

func (j *jobs) layers(t *tracer, m map[string]float64) error {
	m["server.submit_ms"] = 1e3 * median(t.seconds("server.submit"))
	m["server.queue_wait_ms"] = 1e3 * median(t.seconds("server.queue_wait"))
	m["server.run_ms"] = 1e3 * median(t.seconds("server.run"))
	m["server.result_fetch_ms"] = 1e3 * median(t.seconds("server.result_fetch"))
	m["server.stream_events"] = median(countsOf(t, "server.run", "stream_events"))
	m["server.result_bytes"] = median(countsOf(t, "server.result_fetch", "result_bytes"))
	ops := t.seconds("op")
	m["server.jobs"] = float64(len(ops))
	if pct, v, ok := tail(ops); ok {
		m["server.job_tail_pct"], m["server.job_tail_ms"] = pct, 1e3*v
	}
	if j.firstDoc == nil {
		return nil
	}
	ladder := t.begin(nil, -1, "ladder.server")
	defer ladder.end()
	return j.ladder(m, median(ops))
}

// ladder measures what a job costs without the server around it: the
// scenario compile, the same sweep run by the library directly (whose
// figure must match the server's bit for bit), and the per-point cost of
// checkpointing that sweep.
func (j *jobs) ladder(m map[string]float64, jobP50 float64) error {
	var compile, plain, checkpointed []float64
	var c *scenario.Compiled
	for k := 0; k < j.sz.ladderOps; k++ {
		t0 := time.Now()
		sc, err := scenario.Parse(j.firstDoc)
		if err != nil {
			return err
		}
		if c, err = scenario.Compile(sc, scenario.Defaults{}); err != nil {
			return err
		}
		compile = append(compile, time.Since(t0).Seconds())
	}
	m["scenario.compile_ms"] = 1e3 * median(compile)

	ctx := context.Background()
	for k := 0; k < j.sz.ladderOps; k++ {
		t0 := time.Now()
		fig, err := c.Run(ctx, study.Config{Workers: workers}, study.SweepHooks{})
		if err != nil {
			return err
		}
		plain = append(plain, time.Since(t0).Seconds())
		d, err := figureDigest(fig, j.sz.reps)
		if err != nil {
			return err
		}
		if err := d.matches(j.firstDigest, 0); err != nil {
			return fmt.Errorf("library run differs from the server's result: %w", err)
		}

		path := filepath.Join(j.e.work, fmt.Sprintf("ladder-%d.jsonl", k))
		ck, err := study.OpenCheckpoint(path, false)
		if err != nil {
			return err
		}
		t0 = time.Now()
		_, err = study.RunSweep(ctx, c.Config(study.Config{Workers: workers, Checkpoint: ck}), c.PointSpecs(), study.SweepHooks{})
		checkpointed = append(checkpointed, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	floor := median(plain)
	m["server.sweep_s"] = floor
	m["server.overhead_ms"] = 1e3 * (jobP50 - floor)
	m["study.checkpoint_ms"] = 1e3 * (median(checkpointed) - floor) / float64(len(c.Points))
	return nil
}

// countsOf returns the named count of every span called name.
func countsOf(t *tracer, name, count string) []float64 {
	var out []float64
	for _, sp := range t.named(name) {
		out = append(out, sp.Counts[count])
	}
	return out
}

func (j *jobs) close() error { return j.svc.close() }

type hitsSize struct {
	jobs, reps int
}

// hitsWorkload fetches finished jobs from the cache: each operation is a
// resubmission the server answers from its cache, then the result fetch.
// Its preparation fills the cache and records the jobs in a file; set-up
// restarts the server over the cache and reads the file.
func hitsWorkload(sz hitsSize) *workload {
	dir := func(e *env) string { return filepath.Join(e.work, "ituad-hits") }
	list := func(e *env) string { return filepath.Join(e.work, "ituad-hits.jobs.json") }
	return &workload{
		name: "ituad-hits",
		prepare: func(e *env) error {
			src, err := loadJobSource(e, "ituad-hits", "fig5.json", sz.reps)
			if err != nil {
				return err
			}
			svc, err := startService(dir(e))
			if err != nil {
				return err
			}
			jobs, err := fillCache(svc, src, sz)
			if cerr := svc.close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			data, err := json.Marshal(jobs)
			if err != nil {
				return err
			}
			return os.WriteFile(list(e), data, 0o644)
		},
		setup: func(e *env) (instance, error) {
			data, err := os.ReadFile(list(e))
			if err != nil {
				return nil, err
			}
			var jobs []cachedJob
			if err := json.Unmarshal(data, &jobs); err != nil {
				return nil, fmt.Errorf("%s: %w", list(e), err)
			}
			if len(jobs) == 0 {
				return nil, fmt.Errorf("%s lists no jobs", list(e))
			}
			svc, err := startService(dir(e))
			if err != nil {
				return nil, err
			}
			return &hits{jobs: jobs, svc: svc}, nil
		},
	}
}

// cachedJob is one finished job: its document, id, fresh result bytes, and
// the result's digest.
type cachedJob struct {
	Doc    []byte `json:"doc"`
	ID     string `json:"id"`
	Fresh  []byte `json:"fresh"`
	Digest digest `json:"digest"`
}

// fillCache runs the jobs the cache is to hold and returns them with their
// fresh results.
func fillCache(svc *service, src *jobSource, sz hitsSize) ([]cachedJob, error) {
	var jobs []cachedJob
	for k := 0; k < sz.jobs; k++ {
		doc, err := src.doc(uint64(k))
		if err != nil {
			return nil, err
		}
		id, fetched, d, err := freshJob(svc, doc, sz.reps)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, cachedJob{Doc: doc, ID: id, Fresh: fetched, Digest: d})
	}
	return jobs, nil
}

type hits struct {
	jobs []cachedJob
	svc  *service
}

// op resubmits job i (cycling over the cached jobs) and fetches its result,
// which must be byte-identical to the job's fresh result.
func (h *hits) op(i int) (digest, error) {
	j := h.job(i)
	if err := h.submit(j); err != nil {
		return digest{}, err
	}
	return h.fetch(j)
}

func (h *hits) job(i int) *cachedJob { return &h.jobs[i%len(h.jobs)] }

func (h *hits) submit(j *cachedJob) error {
	id, cached, status, err := h.svc.submit(j.Doc)
	if err != nil {
		return err
	}
	if status != http.StatusOK || !cached || id != j.ID {
		return fmt.Errorf("resubmitted job %s: status %d, cached %v, id %s; want 200, cached", j.ID, status, cached, id)
	}
	return nil
}

func (h *hits) fetch(j *cachedJob) (digest, error) {
	body, err := h.svc.get(resultPath(j.ID))
	if err != nil {
		return digest{}, err
	}
	if !bytes.Equal(body, j.Fresh) {
		return digest{}, fmt.Errorf("cache hit for job %s differs from its fresh result", j.ID)
	}
	return j.Digest, nil
}

func (h *hits) traced(i int, root *span) (digest, error) {
	j := h.job(i)
	sp := root.child("server.hit_submit")
	err := h.submit(j)
	sp.end()
	if err != nil {
		return digest{}, err
	}
	sp = root.child("server.hit_result")
	d, err := h.fetch(j)
	sp.end()
	return d, err
}

func (h *hits) repeatable() bool { return true }

func (h *hits) layers(t *tracer, m map[string]float64) error {
	m["server.hit_submit_ms"] = 1e3 * median(t.seconds("server.hit_submit"))
	m["server.hit_result_ms"] = 1e3 * median(t.seconds("server.hit_result"))
	ops := t.seconds("op")
	m["server.hits"] = float64(len(ops))
	if pct, v, ok := tail(ops); ok {
		m["server.hit_tail_pct"], m["server.hit_tail_ms"] = pct, 1e3*v
	}
	return nil
}

func (h *hits) close() error { return h.svc.close() }
