package etsc

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"etsc/internal/dataset"
	"etsc/internal/stats"
	"etsc/internal/synth"
)

// RelClass implements reliability-thresholded early classification in the
// style of Parrish et al., "Classifying with Confidence from Incomplete
// Information" (JMLR 2013). Each class is modelled as a per-timestep
// Gaussian over the full-length exemplar. Given a prefix, the classifier
// computes the MAP class and then estimates the *reliability*: the
// probability that the full-length classification will agree with the
// current decision, marginalizing the unseen suffix under the posterior
// mixture of class-conditional completions. It commits when reliability
// reaches 1-τ.
//
// Pooled=false uses per-class variances (the quadratic-discriminant
// setting); Pooled=true shares one variance profile across classes — the
// LDG ("linear discriminant Gaussian") variant reported separately in the
// paper's Table 1.
//
// The likelihoods are evaluated on raw incoming values: the model is fit to
// z-normalized training data and implicitly assumes the stream arrives in
// that space — the §4 flaw.
type RelClass struct {
	Tau       float64
	Pooled    bool
	MinPrefix int

	labels []int
	prior  []float64
	mean   [][]float64 // [class][t]
	std    [][]float64 // [class][t]
	full   int

	// Frozen Monte Carlo draws: uniform class selectors and standard
	// normal suffix completions, fixed at training time so that
	// ClassifyPrefix is a pure function.
	classU []float64
	noise  [][]float64 // [sample][t]

	// suf is the precomputed suffix-completion table: for sample s,
	// completing class ci, scored class cj, and prefix length l, suf holds
	// Σ_{t=l}^{full-1} logN(mean[ci][t]+std[ci][t]·noise[s][t];
	// mean[cj][t], std[cj][t]) — the whole per-sample suffix walk of the
	// eager Monte Carlo loop, which depends only on (s, ci, cj, l) and never
	// on the stream. Layout is [s][ci][l][cj] (cj contiguous), built as a
	// reverse-cumulative sum over l, so a reliability estimate is
	// O(samples · classes) table lookups instead of
	// O(samples · classes · suffix-length) Gaussian evaluations. nil when
	// the table would exceed relTableMaxFloats; reliability then falls back
	// to the eager Monte Carlo walk (agreeEager).
	suf []float64

	// scratch pools per-call working memory so the pure
	// ClassifyPrefix/Reliability path is allocation-free in steady state
	// without violating the read-only sharing contract (sync.Pool is safe
	// under concurrent ClassifyPrefix calls).
	scratch sync.Pool
}

// relTableMaxFloats caps the suffix table at 8M float64s (64 MB): a
// pathological samples × classes² × length product falls back to the eager
// kernel instead of exploding training memory. A variable so tests can
// exercise the fallback and train the eager reference oracle.
var relTableMaxFloats = 1 << 23

// RelClassConfig controls model fitting.
type RelClassConfig struct {
	Tau       float64 // commit when reliability >= 1-Tau (paper: τ = 0.1)
	Pooled    bool    // LDG variant
	Samples   int     // Monte Carlo completions per decision
	MinStd    float64 // variance floor (shrinkage)
	Seed      int64   // seed for the frozen Monte Carlo draws
	MinPrefix int     // never commit before this many points
}

// DefaultRelClassConfig mirrors the paper's τ=0.1 setting.
func DefaultRelClassConfig(pooled bool) RelClassConfig {
	return RelClassConfig{Tau: 0.1, Pooled: pooled, Samples: 64, MinStd: 0.35, Seed: 5, MinPrefix: 10}
}

// trainRelClass is the fitting path behind the registry. RelClass fits
// per-timestep Gaussians and freezes Monte Carlo draws — an O(n·L) pass
// with no pairwise-distance component — so it takes nothing from a
// TrainContext and every option path delegates here.
func trainRelClass(train *dataset.Dataset, cfg RelClassConfig) (*RelClass, error) {
	if train == nil || train.Len() < 2 {
		return nil, errors.New("etsc: RelClass needs at least 2 training instances")
	}
	if err := train.Validate(); err != nil {
		return nil, fmt.Errorf("etsc: RelClass: %w", err)
	}
	if cfg.Tau <= 0 || cfg.Tau >= 1 {
		return nil, fmt.Errorf("etsc: RelClass τ must be in (0,1), got %v", cfg.Tau)
	}
	if cfg.Samples < 8 {
		cfg.Samples = 8
	}
	if cfg.MinStd <= 0 {
		cfg.MinStd = 0.05
	}
	if cfg.MinPrefix < 1 {
		cfg.MinPrefix = 1
	}

	labels := train.Labels()
	L := train.SeriesLen()
	byClass := train.ByClass()
	// Clamp MinPrefix to the model horizon: the session gate compares the
	// truncation-clamped seen count, so an unclamped MinPrefix > L could
	// never be met there while the raw-length pure path could — both paths
	// now gate on the same reachable value (at l == full the reliability is
	// exactly 1, so a full-length commit is always correct).
	if cfg.MinPrefix > L {
		cfg.MinPrefix = L
	}

	r := &RelClass{
		Tau:       cfg.Tau,
		Pooled:    cfg.Pooled,
		MinPrefix: cfg.MinPrefix,
		labels:    labels,
		full:      L,
	}
	r.prior = make([]float64, len(labels))
	r.mean = make([][]float64, len(labels))
	r.std = make([][]float64, len(labels))
	for ci, label := range labels {
		idx := byClass[label]
		r.prior[ci] = float64(len(idx)) / float64(train.Len())
		mu := make([]float64, L)
		sd := make([]float64, L)
		for t := 0; t < L; t++ {
			var acc stats.Running
			for _, i := range idx {
				acc.Add(train.Instances[i].Series[t])
			}
			mu[t] = acc.Mean()
			s := acc.Std()
			if s < cfg.MinStd {
				s = cfg.MinStd
			}
			sd[t] = s
		}
		r.mean[ci] = mu
		r.std[ci] = sd
	}
	if cfg.Pooled {
		// Share one variance profile: the root mean of class variances.
		pooled := make([]float64, L)
		for t := 0; t < L; t++ {
			v := 0.0
			for ci := range labels {
				v += r.std[ci][t] * r.std[ci][t] * r.prior[ci]
			}
			pooled[t] = math.Sqrt(v)
		}
		for ci := range labels {
			r.std[ci] = pooled
		}
	}

	rng := synth.NewRand(cfg.Seed)
	r.classU = make([]float64, cfg.Samples)
	r.noise = make([][]float64, cfg.Samples)
	for s := 0; s < cfg.Samples; s++ {
		r.classU[s] = rng.Float64()
		row := make([]float64, L)
		for t := range row {
			row[t] = rng.NormFloat64()
		}
		r.noise[s] = row
	}
	if entries := cfg.Samples * len(labels) * len(labels) * (L + 1); entries <= relTableMaxFloats {
		r.buildSuffixTable()
	}
	return r, nil
}

// buildSuffixTable precomputes the per-(sample, completing-class) suffix
// log-likelihood rows as a reverse-cumulative sum: the l-th row is the
// (l+1)-th plus the single-timestep term at t = l, so the whole table costs
// one pass of samples × classes² × length Gaussian evaluations at train
// time. Summation caveat: the eager reference folds the same terms
// left-to-right from the prefix posterior, so table and eager reliabilities
// agree only to floating-point tolerance, not bit-exactly (see DESIGN.md
// §Layer 11).
func (r *RelClass) buildSuffixTable() {
	k := len(r.labels)
	stride := (r.full + 1) * k
	suf := make([]float64, len(r.noise)*k*stride)
	for s, row := range r.noise {
		for ci := 0; ci < k; ci++ {
			base := (s*k + ci) * stride
			mu, sd := r.mean[ci], r.std[ci]
			for l := r.full - 1; l >= 0; l-- {
				x := mu[l] + sd[l]*row[l]
				out := base + l*k
				prev := base + (l+1)*k
				for cj := 0; cj < k; cj++ {
					suf[out+cj] = suf[prev+cj] + stats.LogGaussianPDF(x, r.mean[cj][l], r.std[cj][l])
				}
			}
		}
	}
	r.suf = suf
}

// Name implements EarlyClassifier.
func (r *RelClass) Name() string {
	if r.Pooled {
		return fmt.Sprintf("LDG-RelClass(tau=%.2g)", r.Tau)
	}
	return fmt.Sprintf("RelClass(tau=%.2g)", r.Tau)
}

// FullLength implements EarlyClassifier.
func (r *RelClass) FullLength() int { return r.full }

// logPosterior returns the per-class log posterior of the first l points.
func (r *RelClass) logPosterior(series []float64, l int) []float64 {
	out := make([]float64, len(r.labels))
	r.logPosteriorInto(out, series, l)
	return out
}

// logPosteriorInto is logPosterior into a caller-owned buffer.
func (r *RelClass) logPosteriorInto(dst, series []float64, l int) {
	for ci := range r.labels {
		lp := math.Log(r.prior[ci])
		mu, sd := r.mean[ci], r.std[ci]
		for t := 0; t < l; t++ {
			lp += stats.LogGaussianPDF(series[t], mu[t], sd[t])
		}
		dst[ci] = lp
	}
}

// posteriorFromLog converts log posteriors to normalized probabilities.
func posteriorFromLog(lp []float64) []float64 {
	out := make([]float64, len(lp))
	posteriorFromLogInto(out, lp)
	return out
}

// posteriorFromLogInto is posteriorFromLog into a caller-owned buffer.
func posteriorFromLogInto(dst, lp []float64) {
	best := lp[0]
	for _, v := range lp[1:] {
		if v > best {
			best = v
		}
	}
	sum := 0.0
	for i, v := range lp {
		dst[i] = math.Exp(v - best)
		sum += dst[i]
	}
	for i := range dst {
		dst[i] /= sum
	}
}

func argmax(xs []float64) int {
	bi := 0
	for i := range xs {
		if xs[i] > xs[bi] {
			bi = i
		}
	}
	return bi
}

// Reliability estimates P(full-length decision == current decision) for the
// given prefix, using the frozen Monte Carlo completions.
func (r *RelClass) Reliability(prefix []float64) (label int, reliability float64) {
	l := len(prefix)
	if l > r.full {
		l = r.full
	}
	scr := r.getScratch()
	defer r.scratch.Put(scr)
	r.logPosteriorInto(scr.lp, prefix, l)
	return r.reliabilityFromLogScratch(scr.lp, l, scr)
}

// relScratch is the per-session (or pooled per-call) working memory of the
// reliability estimate; owning one makes repeated estimates
// allocation-free.
type relScratch struct {
	lp, post, cum, flp []float64
}

func (r *RelClass) newRelScratch() *relScratch {
	k := len(r.labels)
	return &relScratch{
		lp:   make([]float64, k),
		post: make([]float64, k),
		cum:  make([]float64, k),
		flp:  make([]float64, k),
	}
}

// getScratch serves the pure path's scratch from the pool, so repeated
// ClassifyPrefix/Reliability calls (LOO and fold sweeps in classify) stop
// churning allocations; the session path owns its scratch outright.
func (r *RelClass) getScratch() *relScratch {
	if scr, ok := r.scratch.Get().(*relScratch); ok {
		return scr
	}
	return r.newRelScratch()
}

// reliabilityFromLogScratch is the allocation-free estimate core shared by
// the pure and incremental paths on an already-accumulated per-class log
// posterior of the first l points. The MAP decision and the class-sampling
// cumulative are kernel-independent; the per-sample agreement count comes
// from the suffix table, or from the original Monte Carlo suffix walk when
// the table was too large to build. lp is not modified (and may alias
// scr.lp).
func (r *RelClass) reliabilityFromLogScratch(lp []float64, l int, scr *relScratch) (label int, reliability float64) {
	posteriorFromLogInto(scr.post, lp)
	mapIdx := argmax(scr.post)
	if l == r.full {
		return r.labels[mapIdx], 1
	}
	// Cumulative posterior for class sampling.
	acc := 0.0
	for i, p := range scr.post {
		acc += p
		scr.cum[i] = acc
	}
	var agree int
	if r.suf != nil {
		agree = r.agreeTable(lp, l, mapIdx, scr)
	} else {
		agree = r.agreeEager(lp, l, mapIdx, scr)
	}
	return r.labels[mapIdx], float64(agree) / float64(len(r.noise))
}

// agreeTable counts the Monte Carlo samples whose full-length argmax agrees
// with the prefix MAP, reading each sample's entire suffix term as one
// precomputed table row: O(classes) per sample, independent of the
// suffix length.
func (r *RelClass) agreeTable(lp []float64, l, mapIdx int, scr *relScratch) int {
	k := len(r.labels)
	stride := (r.full + 1) * k
	agree := 0
	for s := range r.noise {
		// Sample the completing class from the prefix posterior…
		ci := sort.SearchFloat64s(scr.cum, r.classU[s])
		if ci >= k {
			ci = k - 1
		}
		// …and score every class on the tabled completion.
		row := r.suf[(s*k+ci)*stride+l*k:]
		row = row[:k:k]
		best, bestV := 0, lp[0]+row[0]
		for cj := 1; cj < k; cj++ {
			if v := lp[cj] + row[cj]; v > bestV {
				best, bestV = cj, v
			}
		}
		if best == mapIdx {
			agree++
		}
	}
	return agree
}

// agreeEager is the per-decision Monte Carlo suffix walk: the fallback for
// models whose suffix table would exceed relTableMaxFloats, and the
// reference the table kernel is validated against.
func (r *RelClass) agreeEager(lp []float64, l, mapIdx int, scr *relScratch) int {
	agree := 0
	for s := range r.noise {
		// Sample the completing class from the prefix posterior…
		ci := sort.SearchFloat64s(scr.cum, r.classU[s])
		if ci >= len(r.labels) {
			ci = len(r.labels) - 1
		}
		// …and complete the suffix from that class's model.
		copy(scr.flp, lp)
		for t := l; t < r.full; t++ {
			x := r.mean[ci][t] + r.std[ci][t]*r.noise[s][t]
			for cj := range r.labels {
				scr.flp[cj] += stats.LogGaussianPDF(x, r.mean[cj][t], r.std[cj][t])
			}
		}
		if argmax(scr.flp) == mapIdx {
			agree++
		}
	}
	return agree
}

// ClassifyPrefix implements EarlyClassifier. The readiness gate compares
// the truncation-clamped prefix length — exactly the length the session
// path gates on — so pure and incremental decisions agree past the model
// horizon too.
func (r *RelClass) ClassifyPrefix(prefix []float64) Decision {
	label, rel := r.Reliability(prefix)
	l := len(prefix)
	if l > r.full {
		l = r.full
	}
	ready := rel >= 1-r.Tau && l >= r.MinPrefix
	return Decision{Label: label, Ready: ready}
}

// NewIncrementalSession implements IncrementalClassifier with running
// per-class log-posterior sums: each Extend adds only the new points'
// Gaussian log-likelihoods (O(classes · Δl)) before the reliability
// estimate, instead of re-integrating the whole prefix. The estimate
// scratch is session-owned, so steady-state Extends do not allocate.
func (r *RelClass) NewIncrementalSession() IncrementalSession {
	scr := r.newRelScratch()
	for ci := range r.labels {
		scr.lp[ci] = math.Log(r.prior[ci])
	}
	return &relClassSession{r: r, scr: scr}
}

type relClassSession struct {
	r         *RelClass
	scr       *relScratch // scr.lp: running per-class log posterior of the seen prefix
	seen      int
	done      bool
	dec       Decision
	last      Decision // decision of the most recent estimate, for empty batches
	estimates int      // reliability estimates run (regression-test observable)
}

// Extend implements IncrementalSession. Points past the model's full length
// are dropped per the session truncation contract (see
// IncrementalSession.Extend). An Extend that contributes no new points — an
// empty batch, or one truncated whole — returns the cached last decision
// without re-running the reliability estimate.
func (s *relClassSession) Extend(points []float64) Decision {
	if s.done {
		return s.dec
	}
	r := s.r
	if room := r.full - s.seen; len(points) > room {
		points = points[:room]
	}
	if len(points) == 0 {
		if s.seen < 1 {
			return Decision{}
		}
		return s.last
	}
	lps := s.scr.lp
	for ci := range r.labels {
		lp := lps[ci]
		mu, sd := r.mean[ci], r.std[ci]
		for i, x := range points {
			lp += stats.LogGaussianPDF(x, mu[s.seen+i], sd[s.seen+i])
		}
		lps[ci] = lp
	}
	s.seen += len(points)
	label, rel := r.reliabilityFromLogScratch(lps, s.seen, s.scr)
	s.estimates++
	d := Decision{Label: label, Ready: rel >= 1-r.Tau && s.seen >= r.MinPrefix}
	s.last = d
	if d.Ready {
		s.done, s.dec = true, d
	}
	return d
}

// ForcedLabel implements EarlyClassifier: full-length MAP.
func (r *RelClass) ForcedLabel(series []float64) int {
	l := minIntE(len(series), r.full)
	scr := r.getScratch()
	defer r.scratch.Put(scr)
	r.logPosteriorInto(scr.lp, series, l)
	return r.labels[argmax(scr.lp)]
}

// PosteriorPrefix implements PosteriorProvider.
func (r *RelClass) PosteriorPrefix(prefix []float64) map[int]float64 {
	l := minIntE(len(prefix), r.full)
	post := posteriorFromLog(r.logPosterior(prefix, l))
	out := make(map[int]float64, len(post))
	for i, p := range post {
		out[r.labels[i]] = p
	}
	return out
}
