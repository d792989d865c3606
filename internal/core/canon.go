package core

import (
	"bytes"
	"encoding/binary"
	"sync"

	"ituaval/internal/san"
)

// Canonicalizer maps a composed ITUA marking to the representative of its
// orbit under the model's structural symmetry group: hosts within a domain
// are exchangeable (they run identical attack/detection/manager machinery
// at identical rates), and whole domains are exchangeable (every domain
// has the same host count and parameters). It satisfies mc.Canonicalizer,
// so plugging it into mc.Options.Canon makes the generator explore the
// lumped quotient chain directly.
//
// The representative is computed by sorting: first the host sub-markings
// within each domain, then the domain blocks, each by a total order on
// their signature bytes. A host's signature is its host-indexed place
// values plus the sorted list of replica slots placed on it; a domain's
// signature is its domain-indexed place values, its membership in the
// active partition pair, and its sorted host signatures. Because a replica
// slot references its host by flattened index (OnHost holds g+1) and the
// partition places reference domains by index, those references are
// rewritten through the sorting permutation, and the partition pair is
// re-normalized to ascending order (the dynamics treat it as unordered).
//
// Soundness (ordinary lumpability): every activity family is instantiated
// identically per host and per domain, every rate function reads only
// values that the permutation transports (host status, domain spread,
// partition membership), and every enumerable choice in the model —
// uniform host placement, weighted-random placement, uniform recovery
// domain, uniform partition pair, uniform campaign subsets, the uniform
// init permutation — is equivariant: permuting the state permutes the
// successor distribution without changing aggregate rates. The one
// exception is LeastLoadedPlacement, whose deterministic lowest-index
// tie-break distinguishes exchangeable hosts; NewCanonicalizer refuses it.
//
// Sorting ties are harmless: two hosts (or domains) compare equal only
// when their signatures — including the inbound reference lists, which
// are disjoint between distinct hosts — are byte-identical, and swapping
// such blocks is the identity on the marking. The canonical form is
// therefore unique, idempotent, and invariant under any group element.
type Canonicalizer struct {
	d, h, a int

	// hostFams holds the non-nil host-indexed place families; each entry
	// has nHosts place indices in flattened host order.
	hostFams [][]int32
	// domFams holds the domain-indexed families (including each app's
	// HasReplica row); each entry has d place indices.
	domFams [][]int32
	// onHost holds the OnHost[a][r] place indices (a-major); their values
	// are flattened host references (g+1, 0 = empty slot).
	onHost []int32
	// partA/partB are the partition place indices, -1 when the model has
	// no partition feature. Their values are domain references (d+1).
	partA, partB int32

	pool sync.Pool // *canonScratch
}

type canonScratch struct {
	refs    [][]int32 // per host: inbound slot ids, ascending
	sigOff  []int32   // per host: end offset into sigBuf
	sigBuf  []byte
	domOff  []int32
	domBuf  []byte
	hostOrd []int32
	domOrd  []int32
	perm    []int32 // old flattened host -> new flattened host
	dPerm   []int32 // old domain -> new domain
	out     []san.Marking
}

// NewCanonicalizer builds the symmetry canonicalizer for a composed model.
// It returns nil when the model admits no usable symmetry: a single host
// (nothing to lump) or LeastLoadedPlacement (its deterministic tie-break
// by host index is not equivariant, so lumping would be unsound). A nil
// return means "generate the full chain".
func NewCanonicalizer(m *Model) *Canonicalizer {
	if m.Params.NumDomains*m.Params.HostsPerDomain <= 1 {
		return nil
	}
	if m.Params.Placement == LeastLoadedPlacement {
		return nil
	}
	c := &Canonicalizer{
		d: m.Params.NumDomains,
		h: m.Params.HostsPerDomain,
		a: m.Params.NumApps,
	}
	idxOf := func(ps []*san.Place) []int32 {
		out := make([]int32, len(ps))
		for i, p := range ps {
			out[i] = int32(p.Index())
		}
		return out
	}
	hostFam := func(ps []*san.Place) {
		if ps != nil {
			c.hostFams = append(c.hostFams, idxOf(ps))
		}
	}
	hostFam(m.HostStatus)
	hostFam(m.HostExcluded)
	hostFam(m.HostDetectDone)
	hostFam(m.MgrStatus)
	hostFam(m.MgrDetectDone)
	hostFam(m.PropDomDone)
	hostFam(m.PropSysDone)
	hostFam(m.NumReplicas)
	hostFam(m.HostExclPending)
	domFam := func(ps []*san.Place) {
		if ps != nil {
			c.domFams = append(c.domFams, idxOf(ps))
		}
	}
	domFam(m.SpreadDom)
	domFam(m.DomExcluded)
	domFam(m.DomMgrsUp)
	domFam(m.DomMgrsCorrupt)
	domFam(m.ExclPending)
	for a := 0; a < c.a; a++ {
		domFam(m.HasReplica[a])
	}
	for a := 0; a < c.a; a++ {
		c.onHost = append(c.onHost, idxOf(m.OnHost[a])...)
	}
	c.partA, c.partB = -1, -1
	if m.PartitionA != nil {
		c.partA = int32(m.PartitionA.Index())
		c.partB = int32(m.PartitionB.Index())
	}
	return c
}

func (c *Canonicalizer) scratch(nPlaces int) *canonScratch {
	if s, ok := c.pool.Get().(*canonScratch); ok {
		return s
	}
	n := c.d * c.h
	return &canonScratch{
		refs:    make([][]int32, n),
		sigOff:  make([]int32, n+1),
		domOff:  make([]int32, c.d+1),
		hostOrd: make([]int32, n),
		domOrd:  make([]int32, c.d),
		perm:    make([]int32, n),
		dPerm:   make([]int32, c.d),
		out:     make([]san.Marking, nPlaces),
	}
}

// Canonicalize rewrites m in place to its orbit representative. Safe for
// concurrent use (scratch state is pooled per call).
func (c *Canonicalizer) Canonicalize(m []san.Marking) {
	s := c.scratch(len(m))
	defer c.pool.Put(s)
	nHosts := c.d * c.h

	// Inbound references: which replica slots sit on each host. Slot ids
	// are appended in ascending order, so each list is already sorted.
	for g := 0; g < nHosts; g++ {
		s.refs[g] = s.refs[g][:0]
	}
	for sid, pi := range c.onHost {
		if v := m[pi]; v > 0 {
			g := int(v) - 1
			s.refs[g] = append(s.refs[g], int32(sid))
		}
	}

	// Host signatures: local place values then inbound slot ids, all as
	// uvarints. Offsets let slices be taken after the buffer stops growing.
	s.sigBuf = s.sigBuf[:0]
	s.sigOff[0] = 0
	for g := 0; g < nHosts; g++ {
		for _, fam := range c.hostFams {
			s.sigBuf = binary.AppendUvarint(s.sigBuf, uint64(uint32(m[fam[g]])))
		}
		for _, sid := range s.refs[g] {
			s.sigBuf = binary.AppendUvarint(s.sigBuf, uint64(sid)+1)
		}
		s.sigOff[g+1] = int32(len(s.sigBuf))
	}
	hostSig := func(g int32) []byte { return s.sigBuf[s.sigOff[g]:s.sigOff[g+1]] }

	// Sort hosts within each domain by signature bytes.
	for g := range s.hostOrd {
		s.hostOrd[g] = int32(g)
	}
	for d := 0; d < c.d; d++ {
		sortBySig(s.hostOrd[d*c.h:(d+1)*c.h], s.sigBuf, s.sigOff)
	}

	// Domain signatures: domain-local values, partition membership, then
	// the sorted host signatures (length-prefixed, so concatenation stays
	// injective across host boundaries).
	s.domBuf = s.domBuf[:0]
	s.domOff[0] = 0
	for d := 0; d < c.d; d++ {
		for _, fam := range c.domFams {
			s.domBuf = binary.AppendUvarint(s.domBuf, uint64(uint32(m[fam[d]])))
		}
		inCut := uint64(0)
		if c.partA >= 0 && m[c.partA] != 0 &&
			(int(m[c.partA]) == d+1 || int(m[c.partB]) == d+1) {
			inCut = 1
		}
		s.domBuf = binary.AppendUvarint(s.domBuf, inCut)
		for h := 0; h < c.h; h++ {
			sig := hostSig(s.hostOrd[d*c.h+h])
			s.domBuf = binary.AppendUvarint(s.domBuf, uint64(len(sig)))
			s.domBuf = append(s.domBuf, sig...)
		}
		s.domOff[d+1] = int32(len(s.domBuf))
	}
	for d := range s.domOrd {
		s.domOrd[d] = int32(d)
	}
	sortBySig(s.domOrd, s.domBuf, s.domOff)

	// Compose the permutation: domain dOld moves to position dNew, and its
	// h-th smallest host moves to slot h of the new block.
	for dNew, dOld := range s.domOrd {
		s.dPerm[dOld] = int32(dNew)
		for h := 0; h < c.h; h++ {
			gOld := s.hostOrd[int(dOld)*c.h+h]
			s.perm[gOld] = int32(dNew*c.h + h)
		}
	}

	c.permute(m, s)
}

// sortBySig insertion-sorts ids by their signatures, id i's being
// buf[off[i]:off[i+1]]. The blocks are short (a domain's hosts, the domain
// list), and a hand sort allocates nothing where sort.Slice and its
// closures did. Which of two tied ids comes first does not matter: ties
// are byte-identical signatures, and swapping such blocks is the identity
// on the marking.
func sortBySig(ids []int32, buf []byte, off []int32) {
	for i := 1; i < len(ids); i++ {
		x := ids[i]
		sig := buf[off[x]:off[x+1]]
		j := i
		for ; j > 0; j-- {
			prev := ids[j-1]
			if bytes.Compare(sig, buf[off[prev]:off[prev+1]]) >= 0 {
				break
			}
			ids[j] = prev
		}
		ids[j] = x
	}
}

// permute applies the permutation in s (perm over hosts, dPerm over
// domains) to m via the scratch output vector: host- and domain-indexed
// families move, host references in OnHost and domain references in the
// partition pair are rewritten, and the partition pair is re-normalized
// to ascending order. Everything else is copied through unchanged.
func (c *Canonicalizer) permute(m []san.Marking, s *canonScratch) {
	copy(s.out, m)
	nHosts := c.d * c.h
	for _, fam := range c.hostFams {
		for g := 0; g < nHosts; g++ {
			s.out[fam[s.perm[g]]] = m[fam[g]]
		}
	}
	for _, fam := range c.domFams {
		for d := 0; d < c.d; d++ {
			s.out[fam[s.dPerm[d]]] = m[fam[d]]
		}
	}
	for _, pi := range c.onHost {
		if v := m[pi]; v > 0 {
			s.out[pi] = s.perm[int(v)-1] + 1
		}
	}
	if c.partA >= 0 && m[c.partA] != 0 {
		pa := s.dPerm[int(m[c.partA])-1] + 1
		pb := s.dPerm[int(m[c.partB])-1] + 1
		if pa > pb {
			pa, pb = pb, pa
		}
		s.out[c.partA] = pa
		s.out[c.partB] = pb
	}
	copy(m, s.out)
}
