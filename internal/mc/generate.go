// Package mc converts SAN models into continuous-time Markov chains and
// solves them numerically — the analytic path of the Möbius tool ("Möbius
// can solve SANs analytically by converting them into equivalent continuous
// time Markov chains"). The paper's full model was simulated; this package
// cross-validates the simulator exactly, the methodological check a
// validation study needs.
//
// Every timed activity is exponential at its (possibly marking-dependent)
// rate, which must be finite and positive wherever the activity is
// enabled. No gate effect or initialization hook may draw from ctx.Rand
// directly (the generator passes a nil random stream). Effects that need
// randomness through the enumerable choice methods (san.Context.Choose /
// ChooseWeighted / Permute) remain solvable: every alternative becomes a
// probabilistic branch. Instantaneous races and cases are likewise
// enumerated, not sampled.
//
// Generation runs on a pool of workers over a sharded byte-arena
// interner keyed by the compact marking encoding; a sequential renumber
// pass then assigns canonical breadth-first state numbers, so the chain —
// state order, transition rates, and every solver result — is bit-for-bit
// identical at any worker count. The generator matrix is stored in CSR
// form (row-pointer + column/rate arrays) and again sliced by target row
// in chunks of four (SELL-4), the layout the uniformization step gathers
// from four rows at a time.
//
// Models with exchangeable components can supply an Options.Canon
// symmetry canonicalizer: every explored marking is replaced by its orbit
// representative before interning, so the BFS explores the lumped
// quotient chain directly — the full chain is never materialized and the
// state space shrinks by up to the symmetry group's order. By ordinary
// lumpability the quotient produces the same transient and accumulated
// measures as the full chain for any orbit-invariant reward.
package mc

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"ituaval/internal/san"
)

// ErrRandomGate is returned when a gate effect or init hook draws random
// numbers during generation.
var ErrRandomGate = errors.New("mc: gate effect used the random stream; model is not numerically solvable")

// CTMC is a finite continuous-time Markov chain generated from a SAN,
// together with the stable markings backing each state. The generator is
// held twice: in CSR form by source row (rowPtr/cols/rates, columns
// ascending — the order Gauss–Seidel wants), and sliced by target row
// (sellOff/sellCols/sellRates, sources ascending — the gather order the
// uniformized matvec wants, race-free under chunk-parallel execution).
//
// The sliced layout (SELL-4) groups the states into chunks of sellC
// consecutive rows. Chunk ch holds its rows' incoming (source, rate)
// entries column-major from sellOff[ch]: entry k of row r sits at
// sellOff[ch] + k·h + r, where h is the chunk's row count (sellC, fewer
// in a tail chunk). Every row is padded to its chunk's longest row with
// entries of rate 0 whose source is the row itself.
type CTMC struct {
	model   *san.Model
	n       int
	nPlaces int
	// markings holds all state marking vectors flattened, nPlaces each.
	markings []san.Marking

	rowPtr []int32
	cols   []int32
	rates  []float64

	sellOff   []int32
	sellCols  []int32
	sellRates []float64

	exit     []float64
	initDist map[int]float64

	// workers bounds solver parallelism, from Options.Workers.
	workers int
}

// Canonicalizer maps a marking vector to the representative of its orbit
// under a symmetry group of the model, rewriting the vector in place. When
// one is supplied, the generator interns only orbit representatives, so
// the BFS explores the lumped quotient chain directly and no full chain is
// ever materialized.
//
// Correctness requires ordinary lumpability: the model's dynamics must be
// equivariant under the group (permuting a state permutes its successors
// and preserves rates), and every reward evaluated on the resulting chain
// must be constant on each orbit. Canonicalize must be idempotent and
// permutation-invariant: two markings in the same orbit map to the same
// representative. It is called concurrently from the generation workers
// and must be safe for concurrent use.
type Canonicalizer interface {
	Canonicalize(m []san.Marking)
}

// Options bounds state-space generation.
type Options struct {
	// MaxStates aborts generation beyond this many states (0 = 1<<20).
	MaxStates int
	// Workers is the number of parallel generation workers and the row
	// parallelism of large solves (0 = GOMAXPROCS). Results are
	// bit-identical at every worker count.
	Workers int
	// Canon, when non-nil, lumps the chain by symmetry: every explored
	// marking is replaced by its orbit representative before interning,
	// so the generator builds the quotient chain. See Canonicalizer.
	Canon Canonicalizer
}

// pair is one aggregated outgoing transition during expansion, keyed by
// provisional state id.
type pair struct {
	to   uint32
	rate float64
}

// ---- sharded interner ---------------------------------------------------

// shardBits fixes the shard count; the low key-hash bits pick the shard so
// concurrent interns mostly hit different locks.
const shardBits = 6

const numShards = 1 << shardBits

type internEntry struct {
	hash uint64
	id   uint32 // local id + 1; 0 marks an empty slot
}

// internShard is 1/numShards of the state index: an open-addressing table
// over keys stored back to back in a byte arena, plus the marking vectors
// of the shard's states. Provisional state ids pack (local id, shard).
type internShard struct {
	mu       sync.Mutex
	entries  []internEntry
	mask     uint64
	count    int
	arena    []byte
	offs     []uint32 // offs[i]..offs[i+1] is local id i's key; len = count+1
	markings []san.Marking
}

func (s *internShard) keyOf(local uint32) []byte {
	return s.arena[s.offs[local]:s.offs[local+1]]
}

func (s *internShard) grow() {
	old := s.entries
	s.entries = make([]internEntry, 2*len(old))
	s.mask = uint64(len(s.entries) - 1)
	for _, e := range old {
		if e.id == 0 {
			continue
		}
		i := e.hash & s.mask
		for s.entries[i].id != 0 {
			i = (i + 1) & s.mask
		}
		s.entries[i] = e
	}
}

func hashKey(key []byte) uint64 {
	// FNV-1a; keys are short (one byte per place in the common case).
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// ---- generator ----------------------------------------------------------

// generator carries the shared state of one Generate run.
type generator struct {
	model     *san.Model
	nPlaces   int
	timed     []*san.Activity
	maxStates int
	canon     Canonicalizer

	shards [numShards]*internShard

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []uint32
	pending int // interned but not yet fully expanded states
	failed  error
	done    bool

	total int // interned states, guarded by mu (incremented in intern)
}

// intern returns the provisional id for key (hash-sharded), interning the
// marking vector on first sight. It enforces MaxStates at intern time, so
// the state count can never exceed the cap, and names the offending
// marking in the error.
func (g *generator) intern(key []byte, m []san.Marking) (pid uint32, fresh bool, err error) {
	h := hashKey(key)
	sh := g.shards[h&(numShards-1)]
	sh.mu.Lock()
	i := h & sh.mask
	for {
		e := sh.entries[i]
		if e.id == 0 {
			break
		}
		if e.hash == h && string(sh.keyOf(e.id-1)) == string(key) {
			sh.mu.Unlock()
			return (e.id-1)<<shardBits | uint32(h&(numShards-1)), false, nil
		}
		i = (i + 1) & sh.mask
	}
	local := uint32(sh.count)
	sh.entries[i] = internEntry{hash: h, id: local + 1}
	sh.count++
	sh.arena = append(sh.arena, key...)
	sh.offs = append(sh.offs, uint32(len(sh.arena)))
	sh.markings = append(sh.markings, m...)
	if 4*sh.count >= 3*len(sh.entries) {
		sh.grow()
	}
	sh.mu.Unlock()

	g.mu.Lock()
	g.total++
	total := g.total
	over := total > g.maxStates
	g.mu.Unlock()
	if over {
		return 0, false, fmt.Errorf("mc: model %q: state space exceeds MaxStates=%d "+
			"(%d states interned and the frontier is still growing; offending marking %v); "+
			"raise Options.MaxStates or shrink the topology",
			g.model.Name(), g.maxStates, total, append([]san.Marking(nil), m...))
	}
	return local<<shardBits | uint32(h&(numShards-1)), true, nil
}

// loadMarkings copies state pid's marking vector into dst. The shard lock
// guards the slice header against concurrent arena growth.
func (g *generator) loadMarkings(pid uint32, dst []san.Marking) {
	sh := g.shards[pid&(numShards-1)]
	local := int(pid >> shardBits)
	sh.mu.Lock()
	copy(dst, sh.markings[local*g.nPlaces:(local+1)*g.nPlaces])
	sh.mu.Unlock()
}

// fail records the first error and wakes every worker.
func (g *generator) fail(err error) {
	g.mu.Lock()
	if g.failed == nil {
		g.failed = err
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// workerRow is one expanded state: its provisional id and aggregated
// outgoing transitions in deterministic first-encounter order.
type workerRow struct {
	pid   uint32
	pairs []pair
}

// genWorker is the per-worker scratch; everything is reused across states
// so steady-state expansion does not allocate beyond the result rows.
type genWorker struct {
	g         *generator
	scratch   *san.State
	res       *san.Resolver
	keyBuf    []byte
	canonBuf  []san.Marking
	agg       map[uint32]int32
	pairs     []pair
	newIDs    []uint32
	rateScale float64
	visitFn   func(*san.State, float64, int) error
	rows      []workerRow
}

func newGenWorker(g *generator) *genWorker {
	w := &genWorker{
		g:       g,
		scratch: g.model.NewState(),
		res:     san.NewResolver(g.model),
		agg:     make(map[uint32]int32, 64),
	}
	w.visitFn = w.addSuccessor
	return w
}

// canonical returns the marking vector to intern for st: the raw vector
// when no canonicalizer is configured, or a scratch copy rewritten to the
// orbit representative. The copy leaves the resolver's state untouched so
// sibling branches keep resolving from the real marking.
func (w *genWorker) canonical(st *san.State) []san.Marking {
	if w.g.canon == nil {
		return st.Markings()
	}
	w.canonBuf = append(w.canonBuf[:0], st.Markings()...)
	w.g.canon.Canonicalize(w.canonBuf)
	return w.canonBuf
}

// addSuccessor is the resolver visit hook: intern the stable marking
// (canonicalized when lumping) and aggregate the transition rate, in
// first-encounter order so per-row float summation is identical at every
// worker count, once per full branch the resolved one stands for.
// Distinct successors in the same orbit collapse onto one quotient state
// here, which is exactly the lumped chain's aggregate rate.
func (w *genWorker) addSuccessor(st *san.State, p float64, mult int) error {
	rate := w.rateScale * p
	if rate <= 0 {
		return nil
	}
	ms := w.canonical(st)
	w.keyBuf = san.AppendMarkingKey(w.keyBuf[:0], ms)
	pid, fresh, err := w.g.intern(w.keyBuf, ms)
	if err != nil {
		return err
	}
	if fresh {
		w.newIDs = append(w.newIDs, pid)
	}
	j, ok := w.agg[pid]
	if !ok {
		j = int32(len(w.pairs))
		w.agg[pid] = j
		w.pairs = append(w.pairs, pair{to: pid, rate: rate})
		mult--
	}
	w.pairs[j].rate = san.AddRepeated(w.pairs[j].rate, rate, mult)
	return nil
}

// expand enumerates every timed firing from state pid.
func (w *genWorker) expand(pid uint32) error {
	g := w.g
	g.loadMarkings(pid, w.scratch.Markings())
	w.scratch.ResetDirty()
	clear(w.agg)
	w.pairs = w.pairs[:0]
	w.newIDs = w.newIDs[:0]
	for _, a := range g.timed {
		if !a.Enabled(w.scratch) {
			continue
		}
		rate := a.Rate(w.scratch)
		if err := san.CheckRate(a, rate); err != nil {
			return fmt.Errorf("mc: %w", err)
		}
		weights := a.CaseWeights()
		totalW := 0.0
		for _, cw := range weights {
			totalW += cw
		}
		if totalW <= 0 {
			return fmt.Errorf("mc: activity %q has non-positive case weights", a.Name())
		}
		for ci := range a.Cases() {
			if weights[ci] == 0 {
				continue
			}
			w.rateScale = rate * (weights[ci] / totalW)
			if err := w.res.Resolve(w.scratch, a, ci, nil, w.visitFn); err != nil {
				return err
			}
		}
	}
	w.rows = append(w.rows, workerRow{pid: pid, pairs: append([]pair(nil), w.pairs...)})
	return nil
}

// run is one worker's frontier loop: pop, expand, push the freshly
// interned successors. Panics (a nil-Rand draw in a gate, a negative
// marking) are reported as ErrRandomGate, matching the sequential
// generator's contract.
func (w *genWorker) run() {
	g := w.g
	defer func() {
		if r := recover(); r != nil {
			g.fail(fmt.Errorf("%w (%v)", ErrRandomGate, r))
		}
	}()
	for {
		g.mu.Lock()
		for len(g.queue) == 0 && !g.done && g.failed == nil {
			g.cond.Wait()
		}
		if g.done || g.failed != nil {
			g.mu.Unlock()
			return
		}
		pid := g.queue[len(g.queue)-1]
		g.queue = g.queue[:len(g.queue)-1]
		g.mu.Unlock()

		err := w.expand(pid)

		g.mu.Lock()
		if err != nil {
			if g.failed == nil {
				g.failed = err
			}
			g.cond.Broadcast()
			g.mu.Unlock()
			return
		}
		g.queue = append(g.queue, w.newIDs...)
		g.pending += len(w.newIDs) - 1
		if g.pending == 0 {
			g.done = true
		}
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// Generate explores the reachable stable state space of the model and
// builds the CTMC. State numbering, transition rates, and the initial
// distribution are reproducible: independent of Options.Workers and of
// scheduling, bit for bit.
func Generate(model *san.Model, opts Options) (c *CTMC, err error) {
	if !model.Finalized() {
		return nil, errors.New("mc: model not finalized")
	}
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w (%v)", ErrRandomGate, r)
		}
	}()

	g := &generator{
		model:     model,
		nPlaces:   len(model.Places()),
		maxStates: maxStates,
		canon:     opts.Canon,
	}
	g.cond = sync.NewCond(&g.mu)
	for i := range g.shards {
		g.shards[i] = &internShard{
			entries: make([]internEntry, 64),
			mask:    63,
			offs:    []uint32{0},
		}
	}
	for _, a := range model.Activities() {
		if a.Kind() == san.Timed {
			g.timed = append(g.timed, a)
		}
	}

	// Initial stable distribution: the init hook's resolutions are
	// aggregated sequentially, like one state's successors at rate scale
	// 1, so the renumber seeds (the initial states in first-encounter
	// order) are deterministic. A symmetric init hook's placement
	// permutations are enumerated only as the prefixes it reads
	// (san.Context.Permute); addSuccessor adds each prefix branch's
	// probability once per full permutation it stands for, so every
	// initial probability is the same sum of the same terms as a full
	// enumeration. The ITUA hook's prefix branches, with their host
	// choices, each reach a distinct raw marking, so canonicalizing every
	// branch repeats no work.
	seedWorker := newGenWorker(g)
	seedWorker.rateScale = 1
	err = seedWorker.res.Resolve(model.NewState(), nil, 0, model.Init(), seedWorker.visitFn)
	if err != nil {
		return nil, err
	}
	initPairs := append([]pair(nil), seedWorker.pairs...)
	g.queue = append(g.queue, seedWorker.newIDs...)
	g.pending = len(g.queue)
	if g.pending == 0 {
		g.done = true
	}

	// Frontier expansion across the worker pool.
	ws := make([]*genWorker, workers)
	ws[0] = seedWorker
	for i := 1; i < workers; i++ {
		ws[i] = newGenWorker(g)
	}
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *genWorker) {
			defer wg.Done()
			w.run()
		}(w)
	}
	wg.Wait()
	if g.failed != nil {
		return nil, g.failed
	}

	return g.assemble(ws, initPairs)
}

// assemble renumbers the provisional state ids canonically and builds the
// final CSR chain. The breadth-first order over the deterministic
// expansion rows depends only on the model, never on which worker interned
// a state first, which is what makes parallel generation reproducible.
func (g *generator) assemble(ws []*genWorker, initPairs []pair) (*CTMC, error) {
	n := g.total
	// Rows by provisional id.
	rowsBy := make([][][]pair, numShards)
	for s := range rowsBy {
		rowsBy[s] = make([][]pair, g.shards[s].count)
	}
	placed := 0
	for _, w := range ws {
		for _, r := range w.rows {
			rowsBy[r.pid&(numShards-1)][r.pid>>shardBits] = r.pairs
			placed++
		}
	}
	if placed != n {
		return nil, fmt.Errorf("mc: internal error: %d states interned but %d expanded", n, placed)
	}

	// Canonical renumber: BFS from the initial states in enumeration
	// order, successors in first-encounter expansion order.
	finalID := make([][]int32, numShards)
	visited := make([][]uint64, numShards)
	for s := range finalID {
		finalID[s] = make([]int32, g.shards[s].count)
		visited[s] = make([]uint64, (g.shards[s].count+63)/64)
	}
	mark := func(pid uint32) bool { // returns true when newly visited
		s, l := pid&(numShards-1), pid>>shardBits
		if visited[s][l/64]&(1<<(l%64)) != 0 {
			return false
		}
		visited[s][l/64] |= 1 << (l % 64)
		return true
	}
	order := make([]uint32, 0, n)
	push := func(pid uint32) {
		if mark(pid) {
			finalID[pid&(numShards-1)][pid>>shardBits] = int32(len(order))
			order = append(order, pid)
		}
	}
	for _, ip := range initPairs {
		push(ip.to)
	}
	for head := 0; head < len(order); head++ {
		for _, pr := range rowsBy[order[head]&(numShards-1)][order[head]>>shardBits] {
			push(pr.to)
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("mc: internal error: %d of %d states unreachable after renumber", n-len(order), n)
	}

	// Final flat arrays in canonical order.
	c := &CTMC{
		model:    g.model,
		n:        n,
		nPlaces:  g.nPlaces,
		markings: make([]san.Marking, n*g.nPlaces),
		rowPtr:   make([]int32, n+1),
		exit:     make([]float64, n),
		initDist: make(map[int]float64, len(initPairs)),
		workers:  len(ws),
	}
	fidOf := func(pid uint32) int32 { return finalID[pid&(numShards-1)][pid>>shardBits] }
	nnz := 0
	for fid, pid := range order {
		sh := g.shards[pid&(numShards-1)]
		local := int(pid >> shardBits)
		copy(c.markings[fid*g.nPlaces:], sh.markings[local*g.nPlaces:(local+1)*g.nPlaces])
		for _, pr := range rowsBy[pid&(numShards-1)][local] {
			if pr.to != pid { // self-loops cancel in the generator
				nnz++
			}
		}
		c.rowPtr[fid+1] = int32(nnz)
	}
	c.cols = make([]int32, nnz)
	c.rates = make([]float64, nnz)
	for fid, pid := range order {
		lo := c.rowPtr[fid]
		k := lo
		for _, pr := range rowsBy[pid&(numShards-1)][pid>>shardBits] {
			if pr.to == pid {
				continue
			}
			c.cols[k] = fidOf(pr.to)
			c.rates[k] = pr.rate
			k++
		}
		// Insertion sort by column: rows are short and nearly sorted.
		for i := lo + 1; i < k; i++ {
			cc, rr := c.cols[i], c.rates[i]
			j := i
			for j > lo && c.cols[j-1] > cc {
				c.cols[j], c.rates[j] = c.cols[j-1], c.rates[j-1]
				j--
			}
			c.cols[j], c.rates[j] = cc, rr
		}
		e := 0.0
		for i := lo; i < k; i++ {
			e += c.rates[i]
		}
		c.exit[fid] = e
	}

	c.slice()

	for _, ip := range initPairs {
		c.initDist[int(fidOf(ip.to))] += ip.rate
	}
	return c, nil
}

// sellC is the number of rows a chunk of the sliced layout holds.
const sellC = 4

// chunkRows is the row count of chunk ch of an n-state sliced layout:
// sellC, or n mod sellC in a tail chunk.
func chunkRows(n, ch int) int { return min(sellC, n-ch*sellC) }

// slice builds the sliced layout (see CTMC) from the row CSR. Scanning
// the source rows in order lists each target row's sources ascending.
func (c *CTMC) slice() {
	n := c.n
	nch := (n + sellC - 1) / sellC
	in := make([]int, n) // incoming entries per row; then a fill cursor
	for _, col := range c.cols {
		in[col]++
	}
	c.sellOff = make([]int32, nch+1)
	for ch := 0; ch < nch; ch++ {
		longest := 0
		for _, m := range in[ch*sellC : ch*sellC+chunkRows(n, ch)] {
			longest = max(longest, m)
		}
		c.sellOff[ch+1] = c.sellOff[ch] + int32(longest*chunkRows(n, ch))
	}
	c.sellCols = make([]int32, c.sellOff[nch])
	c.sellRates = make([]float64, c.sellOff[nch])
	// at is the position of entry k of row i; width is row i's padded
	// entry count.
	at := func(i, k int) int {
		ch := i / sellC
		return int(c.sellOff[ch]) + k*chunkRows(n, ch) + i%sellC
	}
	width := func(i int) int {
		ch := i / sellC
		return int(c.sellOff[ch+1]-c.sellOff[ch]) / chunkRows(n, ch)
	}
	clear(in)
	for src := 0; src < n; src++ {
		for k := c.rowPtr[src]; k < c.rowPtr[src+1]; k++ {
			i := int(c.cols[k])
			c.sellCols[at(i, in[i])] = int32(src)
			c.sellRates[at(i, in[i])] = c.rates[k]
			in[i]++
		}
	}
	for i := 0; i < n; i++ {
		for k := in[i]; k < width(i); k++ {
			c.sellCols[at(i, k)] = int32(i)
		}
	}
}

// NumStates returns the number of stable states.
func (c *CTMC) NumStates() int { return c.n }

// NumTransitions returns the number of distinct transitions.
func (c *CTMC) NumTransitions() int { return len(c.cols) }

// StateMarking returns the marking vector of state id (aliased; do not
// modify).
func (c *CTMC) StateMarking(id int) []san.Marking {
	return c.markings[id*c.nPlaces : (id+1)*c.nPlaces : (id+1)*c.nPlaces]
}

// evalState evaluates f on the marking of state id using a scratch state.
func (c *CTMC) evalState(f func(*san.State) float64, scratch *san.State, id int) float64 {
	copy(scratch.Markings(), c.StateMarking(id))
	scratch.ResetDirty()
	return f(scratch)
}

// RewardVector evaluates f over every state.
func (c *CTMC) RewardVector(f func(*san.State) float64) []float64 {
	scratch := c.model.NewState()
	r := make([]float64, c.n)
	for i := 0; i < c.n; i++ {
		r[i] = c.evalState(f, scratch, i)
	}
	return r
}

// InitialDistribution returns a dense copy of the initial distribution.
func (c *CTMC) InitialDistribution() []float64 {
	p := make([]float64, c.n)
	for id, prob := range c.initDist {
		p[id] = prob
	}
	return p
}
