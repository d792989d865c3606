package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls. Resource figures are process-wide deltas over
// the span's interval, so a span that overlaps another (parallel sweep
// points) shares them.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"` // 0 for a root
	Workload string             `json:"workload"`
	Op       int                `json:"op"` // operation index; -1 for layer-ladder probes
	Name     string             `json:"name"`
	Start    time.Duration      `json:"start_ns"` // since the recorder started
	End      time.Duration      `json:"end_ns"`
	Self     time.Duration      `json:"self_ns"` // filled in by finish
	CPU      time.Duration      `json:"cpu_ns"`  // process CPU time (user+sys)
	Bytes    uint64             `json:"alloc_bytes"`
	Objects  uint64             `json:"alloc_objects"`
	Counts   map[string]float64 `json:"counts,omitempty"`
	resource snapshot
	tr       *tracer
}

// tracer keeps spans in memory; they are written out once, at exit.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []*span
	kids  map[int][]*span // by parent id
	perOp map[int]int     // span count by operation
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), kids: make(map[int][]*span), perOp: make(map[int]int)}
}

// record assigns sp its id and files it.
func (t *tracer) record(sp *span) {
	t.mu.Lock()
	sp.ID = len(t.spans) + 1
	t.spans = append(t.spans, sp)
	t.kids[sp.Parent] = append(t.kids[sp.Parent], sp)
	t.perOp[sp.Op]++
	t.mu.Unlock()
}

// begin opens a span under parent (nil for a root) for operation op.
func (t *tracer) begin(parent *span, op int, name string) *span {
	sp := &span{Workload: t.workload, Op: op, Name: name, tr: t}
	if parent != nil {
		sp.Parent = parent.ID
	}
	t.record(sp)
	sp.resource = takeSnapshot()
	sp.Start = time.Since(t.t0)
	return sp
}

// end closes the span and returns its duration in seconds.
func (sp *span) end() float64 {
	sp.End = time.Since(sp.tr.t0)
	now := takeSnapshot()
	sp.CPU = now.cpu - sp.resource.cpu
	sp.Bytes = now.bytes - sp.resource.bytes
	sp.Objects = now.objects - sp.resource.objects
	return sp.seconds()
}

// child opens a span under sp for the same operation.
func (sp *span) child(name string) *span { return sp.tr.begin(sp, sp.Op, name) }

// add records a span whose interval was observed elsewhere (a sweep point
// reported through progress hooks); it carries no resource deltas.
func (t *tracer) add(parent *span, name string, start, end time.Time) *span {
	sp := &span{Workload: t.workload, Op: parent.Op, Parent: parent.ID, Name: name, tr: t,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)}
	t.record(sp)
	return sp
}

// count attaches a work count to the span.
func (sp *span) count(name string, v float64) {
	if sp.Counts == nil {
		sp.Counts = make(map[string]float64)
	}
	sp.Counts[name] = v
}

func (sp *span) seconds() float64 { return (sp.End - sp.Start).Seconds() }

// named returns the spans called name, in recording order.
func (t *tracer) named(name string) []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*span
	for _, sp := range t.spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// seconds returns the durations of the spans called name.
func (t *tracer) seconds(name string) []float64 {
	var out []float64
	for _, sp := range t.named(name) {
		out = append(out, sp.seconds())
	}
	return out
}

// children returns the spans whose parent is sp.
func (t *tracer) children(sp *span) []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.kids[sp.ID]
}

// covered returns how much of [lo, hi) the union of the spans' intervals
// covers. Overlapping children (parallel sweep points) count once.
func covered(spans []*span, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, s := range spans {
		a, b := s.Start, s.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			if v.b > curB {
				curB = v.b
			}
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// coverage returns how much of sp's duration its children cover, and that
// duration.
func (t *tracer) coverage(sp *span) (covers, of time.Duration) {
	return covered(t.children(sp), sp.Start, sp.End), sp.End - sp.Start
}

// spansOf returns how many spans operation op recorded.
func (t *tracer) spansOf(op int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.perOp[op]
}

// finish computes every span's self time: its duration minus the part of
// its interval that its children cover.
func (t *tracer) finish() {
	for _, sp := range t.spans {
		sp.Self = sp.End - sp.Start - covered(t.children(sp), sp.Start, sp.End)
	}
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	t.finish()
	data, err := json.MarshalIndent(struct {
		Workload string  `json:"workload"`
		Spans    []*span `json:"spans"`
	}{t.workload, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// snapshot is the process-wide resource state at one instant.
type snapshot struct {
	cpu            time.Duration
	bytes, objects uint64
}

func takeSnapshot() snapshot {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(samples)
	return snapshot{
		cpu:     cpuTime(),
		bytes:   samples[0].Value.Uint64(),
		objects: samples[1].Value.Uint64(),
	}
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
