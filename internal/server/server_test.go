package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"ituaval/internal/scenario"
	"ituaval/internal/study"
)

// tinyScenario is a fast fixed-replication scenario: the 2-domain analytic
// topology, two sweep points, ~30 ms of simulation.
func tinyScenario(name string, seed uint64) string {
	return fmt.Sprintf(`{"name":%q,"model":{"domains":2,"hostsPerDomain":1,"apps":1,"repsPerApp":2,"corruptionMult":5},
		"horizon":2,"measures":[{"name":"u","kind":"unavailability"},{"name":"r","kind":"unreliability"}],
		"sweep":{"x":{"param":"domainSpreadRate","values":[0,4]}},
		"run":{"reps":40,"seed":%d}}`, name, seed)
}

// precisionScenario runs in precision mode with an absolute target every
// point meets in its first batch, which makes checkpoint/shutdown timing
// deterministic: the points finish in one round and are committed in point
// order, point i persisted before the test hook for point i runs, and the
// sweep checks for cancellation before committing the next.
func precisionScenario() string {
	return `{"name":"precise","model":{"domains":2,"hostsPerDomain":1,"apps":1,"repsPerApp":2,"corruptionMult":5},
		"horizon":2,"measures":[{"name":"u","kind":"unavailability"}],
		"sweep":{"x":{"param":"domainSpreadRate","values":[0,4,8]}},
		"run":{"reps":10,"seed":3,"targetAbsHW":1000}}`
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, body string) jobStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, raw)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// streamEvents reads a job's NDJSON stream to the end and returns the raw
// event lines.
func streamEvents(t *testing.T, ts *httptest.Server, id string) []json.RawMessage {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var events []json.RawMessage
	dec := json.NewDecoder(resp.Body)
	for {
		var ev json.RawMessage
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				return events
			}
			t.Fatalf("stream decode: %v", err)
		}
		events = append(events, ev)
	}
}

func eventType(ev json.RawMessage) string {
	var head struct {
		Type string `json:"type"`
	}
	_ = json.Unmarshal(ev, &head)
	return head.Type
}

func getResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s: %s", resp.Status, raw)
	}
	return raw
}

// TestCacheBitIdentical is the service's core guarantee: a resubmitted
// scenario is served from the cache, and the cached bytes are identical to
// the fresh response — and to an independent in-process recomputation.
func TestCacheBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := tinyScenario("cachecheck", 11)

	st := submit(t, ts, body)
	if st.Cached || st.State == stateDone {
		t.Fatalf("first submission claims cached: %+v", st)
	}
	events := streamEvents(t, ts, st.ID)
	last := events[len(events)-1]
	if eventType(last) != "result" {
		t.Fatalf("stream did not end in a result event: %s", last)
	}
	fresh := getResult(t, ts, st.ID)

	st2 := submit(t, ts, body)
	if !st2.Cached || st2.ID != st.ID {
		t.Fatalf("resubmission not served from cache: %+v", st2)
	}
	again := getResult(t, ts, st2.ID)
	if !bytes.Equal(fresh, again) {
		t.Fatal("cached result differs from fresh result")
	}

	// The cached stream's terminal frame embeds the same bytes.
	var terminal resultEvent
	if err := json.Unmarshal(last, &terminal); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(terminal.Result, fresh) {
		t.Fatal("streamed result differs from served result")
	}

	// Independent recomputation (no server, no cache) must reproduce the
	// document byte-for-byte: content addressing is sound only because the
	// computation is deterministic.
	sc, err := scenario.Parse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	c, err := scenario.Compile(sc, scenario.Defaults{})
	if err != nil {
		t.Fatal(err)
	}
	fig, err := c.Run(context.Background(), study.Config{Workers: 3}, study.SweepHooks{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(resultDoc{Hash: c.Hash(), Scenario: c.Canonical(), Figure: fig})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, fresh) {
		t.Fatalf("server result differs from independent recomputation\nserver: %s\nlocal:  %s", fresh, doc)
	}
}

// TestConcurrentJobsStream: two different jobs submitted together must both
// stream progress and complete (the serve-smoke lane asserts the same
// end-to-end through a real ituad process).
func TestConcurrentJobsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{JobConcurrency: 2})
	a := submit(t, ts, tinyScenario("job-a", 21))
	b := submit(t, ts, tinyScenario("job-b", 22))
	if a.ID == b.ID {
		t.Fatal("distinct scenarios collided on one id")
	}
	var wg sync.WaitGroup
	results := make([][]json.RawMessage, 2)
	for i, id := range []string{a.ID, b.ID} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = streamEvents(t, ts, id)
		}()
	}
	wg.Wait()
	for i, events := range results {
		kinds := map[string]int{}
		for _, ev := range events {
			kinds[eventType(ev)]++
		}
		if kinds["started"] != 1 || kinds["result"] != 1 {
			t.Errorf("job %d event mix: %v", i, kinds)
		}
		if kinds["progress"] == 0 || kinds["point"] != 2 {
			t.Errorf("job %d missing progress/point events: %v", i, kinds)
		}
	}
}

// TestStreamReplay: a subscriber that connects after completion sees the
// identical event sequence an early subscriber saw, as NDJSON whatever its
// Accept header says.
func TestStreamReplay(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st := submit(t, ts, tinyScenario("replay", 31))
	early := streamEvents(t, ts, st.ID)
	late := streamEvents(t, ts, st.ID)
	if len(early) != len(late) {
		t.Fatalf("replay length: early %d, late %d", len(early), len(late))
	}
	for i := range early {
		if !bytes.Equal(early[i], late[i]) {
			t.Fatalf("replay event %d differs:\nearly: %s\nlate:  %s", i, early[i], late[i])
		}
	}

	// NDJSON is the only framing: a client asking for Server-Sent Events
	// gets the same lines.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+st.ID+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q under Accept: text/event-stream", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	var want bytes.Buffer
	for _, ev := range early {
		want.Write(ev)
		want.WriteByte('\n')
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Fatalf("stream under Accept: text/event-stream:\n%s\nwant:\n%s", raw, want.Bytes())
	}
}

// TestConcurrentSubscribersOneJob: four NDJSON subscribers of one job,
// connected while it runs, read its shared event log at once; each must
// see the same bytes, and under -race framing an event must not write into
// the log.
func TestConcurrentSubscribersOneJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st := submit(t, ts, tinyScenario("fanout", 51))
	const subs = 4
	got := make([][]byte, subs)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if got[i], err = io.ReadAll(resp.Body); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	events := streamEvents(t, ts, st.ID)
	if len(events) == 0 || eventType(events[len(events)-1]) != "result" {
		t.Fatalf("stream did not end in a result event: %s", events)
	}
	var want bytes.Buffer
	for _, ev := range events {
		want.Write(ev)
		want.WriteByte('\n')
	}
	for i, raw := range got {
		if !bytes.Equal(raw, want.Bytes()) {
			t.Errorf("subscriber %d read:\n%s\nwant:\n%s", i, raw, want.Bytes())
		}
	}
}

// TestSubmitRejects: a body that is not a valid JSON scenario is a client
// error (400), answered promptly: a seed stride that once made Compile
// loop forever on the request goroutine must not pin it.
func TestSubmitRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := &http.Client{Timeout: 10 * time.Second}
	for label, body := range map[string]string{
		"not a scenario": `{"bogus":true}`,
		"zero topology":  `{"name":"x","model":{"domains":0,"hostsPerDomain":1,"apps":1,"repsPerApp":2},"horizon":5,"measures":[{"name":"u","kind":"unavailability"}]}`,
		"garbage":        `}{`,
		"yaml":           "name: x\nmodel:\n  domains: 2\n  hostsPerDomain: 1\n  apps: 1\n  repsPerApp: 2\nhorizon: 5\nmeasures:\n  - name: u\n    kind: unavailability\n",
		"huge seed stride": `{"name":"a","horizon":1,"model":{"domains":1,"hostsPerDomain":1,"apps":1,"repsPerApp":1},"measures":[{"name":"m","kind":"hosts-up"}],
			"sweep":{"x":{"param":"recoveryRate","values":[0.1,0.2],"seedStride":9000000000000000000},"series":{"param":"policy","strings":["domain-exclusion","host-exclusion"]}}}`,
	} {
		resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %s, want 400", label, resp.Status)
		}
	}
}

// TestSubmitBodyErrors: a body one byte over scenario.MaxBytes is refused
// as too large (413); a body that fails to read is a bad request (400).
func TestSubmitBodyErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		bytes.NewReader(bytes.Repeat([]byte(" "), scenario.MaxBytes+1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %s, want 413", resp.Status)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", failingReader{}))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("failing body: status %d, want 400", rec.Code)
	}
}

// TestSubmitPersistFailure: a spec that cannot be written to DataDir/jobs
// is a server fault (500), and the job is neither listed nor queued.
func TestSubmitPersistFailure(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// A regular file where the jobs directory was makes every spec write
	// fail, even for a process that may write anywhere.
	jobs := s.cfg.jobsDir()
	if err := os.RemoveAll(jobs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jobs, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tinyScenario("unpersisted", 61)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("unpersistable spec: status %s (%s), want 500", resp.Status, raw)
	}
	s.mu.Lock()
	known, queued := len(s.jobs), len(s.queue)
	s.mu.Unlock()
	if known != 0 || queued != 0 {
		t.Fatalf("failed submission left %d job(s) known and %d queued", known, queued)
	}
}

// failingReader is a request body whose every read fails.
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("connection reset") }

func TestStudiesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/studies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []studyInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(study.IDs()) {
		t.Fatalf("%d studies listed, want %d", len(infos), len(study.IDs()))
	}
	for _, info := range infos {
		if info.Description == "" {
			t.Errorf("study %q has no description", info.ID)
		}
	}
}

// TestGracefulShutdownResume is the service's durability story end to end:
// a server shut down mid-job leaves the spec and the finished points'
// checkpoint on disk; a new server on the same data dir re-queues the job,
// restores the finished points without resimulating, and produces a result
// byte-identical to an uninterrupted run — including the per-point
// completed/failed/skipped accounting.
func TestGracefulShutdownResume(t *testing.T) {
	dataDir := t.TempDir()
	body := precisionScenario()

	// Uninterrupted reference on a separate data dir.
	_, refTS := newTestServer(t, Config{})
	refSt := submit(t, refTS, body)
	streamEvents(t, refTS, refSt.ID)
	want := getResult(t, refTS, refSt.ID)

	// Interrupted run: the test hook pauses the job after its first point
	// (already checkpointed by then) while Shutdown runs.
	firstPoint := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s1, ts1 := newTestServer(t, Config{
		DataDir: dataDir,
		testAfterPoint: func(string, int) {
			once.Do(func() { close(firstPoint) })
			<-release
		},
	})
	st := submit(t, ts1, body)
	if st.ID != refSt.ID {
		t.Fatalf("content address differs across servers: %s vs %s", st.ID, refSt.ID)
	}
	<-firstPoint
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s1.Shutdown(ctx)
	}()
	// Release the job only once shutdown has cancelled it: released
	// earlier, it can finish its last points before the cancel lands.
	<-s1.baseCtx.Done()
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts1.Close()
	if _, err := os.Stat(s1.specPath(st.ID)); err != nil {
		t.Fatalf("interrupted job's spec not persisted: %v", err)
	}
	if _, err := os.Stat(s1.checkpointPath(st.ID)); err != nil {
		t.Fatalf("interrupted job's checkpoint missing: %v", err)
	}
	if state, _ := s1.lookup(st.ID).snapshot(); state != stateInterrupted {
		t.Fatalf("job state after shutdown: %s, want %s", state, stateInterrupted)
	}

	// Restart on the same data dir: the job re-queues and resumes.
	_, ts2 := newTestServer(t, Config{DataDir: dataDir})
	events := streamEvents(t, ts2, st.ID)
	var started startedEvent
	for _, ev := range events {
		if eventType(ev) == "started" {
			if err := json.Unmarshal(ev, &started); err != nil {
				t.Fatal(err)
			}
		}
	}
	if started.Resumed < 1 {
		t.Errorf("resumed run restored %d points from the checkpoint, want >= 1", started.Resumed)
	}
	got := getResult(t, ts2, st.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs from uninterrupted run\nresumed: %s\nfresh:   %s", got, want)
	}
}

// TestCancel: cancelling a running job retires it without caching a result,
// and a resubmission runs it again.
func TestCancel(t *testing.T) {
	blocked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s, ts := newTestServer(t, Config{
		testAfterPoint: func(string, int) {
			once.Do(func() { close(blocked) })
			<-release
		},
	})
	st := submit(t, ts, precisionScenario())
	<-blocked
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	close(release)
	deadline := time.Now().Add(30 * time.Second)
	for {
		state, _ := s.lookup(st.ID).snapshot()
		if state == stateCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s after cancel", state)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s.cacheHas(st.ID) {
		t.Fatal("cancelled job left a cache entry")
	}
	if _, err := os.Stat(s.specPath(st.ID)); err == nil {
		t.Fatal("cancelled job left its spec persisted")
	}
}
