package ts

import (
	"fmt"
	"sync"

	"etsc/internal/par"
)

// PrefixDistMatrix memoizes the pairwise squared Euclidean distances between
// every pair of reference series at every prefix length — the n×n×L tensor
// that the trainers in internal/etsc (ECTS's per-length 1NN sweep, the
// per-prefix LOOCV passes of ECDIRE/TEASER/CostAware) would otherwise each
// recompute over the same training set. It comes in two flavors:
//
//   - Raw: distances between raw prefixes, accumulated incrementally — one
//     O(1) update per (pair, added point) — so every entry is bit-identical
//     to the in-order from-scratch loop `for t < l { d += (a[t]-b[t])² }`.
//   - ZNorm: distances between z-normalized prefixes, materialized lazily
//     per requested length as SquaredEuclidean(ZNorm(a[:l]), ZNorm(b[:l])).
//     Entries are bit-identical to the two-pass computation over
//     dataset.Truncate(l, true) prefixes, which is what the snapshot
//     trainers (TEASER) compare against; only the lengths actually touched
//     (e.g. TEASER's ~20 snapshots) are ever paid for.
//
// Materialization is lazy in both flavors so small trainers (FixedPrefix,
// ProbThreshold) never pay for a full precompute, and parallel over the
// shared par pool; because each pair's accumulation is a sequential walk
// owned by one worker, the stored tensor is byte-identical for every worker
// count.
//
// Concurrency contract: Ensure/EnsureZNorm calls are serialized internally
// and may be called from any goroutine, but they must not run concurrently
// with D2/ZNormD2 reads of the lengths being materialized. The intended
// protocol — materialize first, then fan out lock-free reads — is what
// every etsc.TrainContext consumer follows: a trainer calls Ensure*(l) up
// front and only then spawns its par.Do readers.
type PrefixDistMatrix struct {
	refs    [][]float64
	n, l    int
	workers int

	mu    sync.Mutex
	built int         // raw prefix lengths materialized so far
	acc   []float64   // per-pair running raw accumulator at length built
	raw   [][]float64 // raw[l-1] = pair triangle at prefix length l
	zn    [][]float64 // zn[l-1] = z-normalized pair triangle at length l
}

// NewPrefixDistMatrix builds an empty (nothing materialized) matrix over
// refs. All references must be non-empty and equal length — ragged inputs
// are a shape error, rejected here rather than deep in a trainer. workers
// bounds the materialization pool (<= 0 means one worker per CPU).
func NewPrefixDistMatrix(refs [][]float64, workers int) (*PrefixDistMatrix, error) {
	if len(refs) == 0 {
		return nil, fmt.Errorf("ts: PrefixDistMatrix needs at least 1 reference")
	}
	l := len(refs[0])
	if l == 0 {
		return nil, fmt.Errorf("ts: PrefixDistMatrix reference 0 is empty")
	}
	for i, r := range refs {
		if len(r) != l {
			return nil, fmt.Errorf("ts: PrefixDistMatrix ragged reference %d: length %d != %d", i, len(r), l)
		}
	}
	n := len(refs)
	return &PrefixDistMatrix{
		refs:    refs,
		n:       n,
		l:       l,
		workers: workers,
		acc:     make([]float64, n*(n-1)/2),
		raw:     make([][]float64, l),
		zn:      make([][]float64, l),
	}, nil
}

// Size returns the number of reference series.
func (m *PrefixDistMatrix) Size() int { return m.n }

// MaxLen returns the common reference length.
func (m *PrefixDistMatrix) MaxLen() int { return m.l }

// BuiltLen returns the raw prefix length materialized so far.
func (m *PrefixDistMatrix) BuiltLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.built
}

// pairIndex maps i < j to the upper-triangle slot.
func (m *PrefixDistMatrix) pairIndex(i, j int) int {
	return i*(2*m.n-i-1)/2 + (j - i - 1)
}

// Ensure materializes the raw tensor through prefix length l. Already-built
// lengths cost nothing; new lengths extend every pair's accumulator by the
// new points only, fanned across the worker pool pair-by-pair.
func (m *PrefixDistMatrix) Ensure(l int) error {
	if l < 0 || l > m.l {
		return fmt.Errorf("ts: PrefixDistMatrix length %d out of range 0..%d", l, m.l)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if l <= m.built {
		return nil
	}
	from := m.built
	for t := from; t < l; t++ {
		m.raw[t] = make([]float64, len(m.acc))
	}
	// Parallelize over the first index i, each worker owning rows (i, j>i);
	// every pair's time walk stays sequential, so the stored partial sums
	// are the exact sequence the serial loop produces.
	n := m.n
	par.Do(n-1, m.workers, func(i int) {
		a := m.refs[i]
		for j := i + 1; j < n; j++ {
			b := m.refs[j]
			p := m.pairIndex(i, j)
			acc := m.acc[p]
			for t := from; t < l; t++ {
				d := a[t] - b[t]
				acc += d * d
				m.raw[t][p] = acc
			}
			m.acc[p] = acc
		}
	})
	m.built = l
	return nil
}

// D2 returns the raw squared Euclidean distance between refs[i][:l] and
// refs[j][:l]. The length must have been materialized with Ensure; this is
// a hot-path accessor and panics on protocol violations, like the other
// ts kernels.
func (m *PrefixDistMatrix) D2(i, j, l int) float64 {
	if i == j {
		return 0
	}
	if l == 0 {
		return 0
	}
	tri := m.raw[l-1]
	if tri == nil {
		panic(fmt.Sprintf("ts: PrefixDistMatrix raw length %d not materialized (call Ensure first)", l))
	}
	if i > j {
		i, j = j, i
	}
	return tri[m.pairIndex(i, j)]
}

// EnsureZNorm materializes the z-normalized triangle at exactly prefix
// length l (1 <= l <= MaxLen). Each length is an independent, cached unit:
// the prefixes are z-normalized with the same ts.ZNorm the dataset layer
// uses, then all pairs are measured with SquaredEuclidean, in parallel over
// rows — so entries are bit-identical to the direct two-pass computation
// for every worker count.
func (m *PrefixDistMatrix) EnsureZNorm(l int) error {
	if l < 1 || l > m.l {
		return fmt.Errorf("ts: PrefixDistMatrix z-norm length %d out of range 1..%d", l, m.l)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.zn[l-1] != nil {
		return nil
	}
	n := m.n
	zp := make([][]float64, n)
	par.Do(n, m.workers, func(i int) {
		zp[i] = ZNorm(m.refs[i][:l])
	})
	tri := make([]float64, len(m.acc))
	par.Do(n-1, m.workers, func(i int) {
		for j := i + 1; j < n; j++ {
			tri[m.pairIndex(i, j)] = SquaredEuclidean(zp[i], zp[j])
		}
	})
	m.zn[l-1] = tri
	return nil
}

// ZNormD2 returns the squared Euclidean distance between the z-normalized
// prefixes ZNorm(refs[i][:l]) and ZNorm(refs[j][:l]). The length must have
// been materialized with EnsureZNorm; panics otherwise.
func (m *PrefixDistMatrix) ZNormD2(i, j, l int) float64 {
	if i == j {
		return 0
	}
	tri := m.zn[l-1]
	if tri == nil {
		panic(fmt.Sprintf("ts: PrefixDistMatrix z-norm length %d not materialized (call EnsureZNorm first)", l))
	}
	if i > j {
		i, j = j, i
	}
	return tri[m.pairIndex(i, j)]
}
