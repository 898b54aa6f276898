package stats

import (
	"errors"
	"math"
)

// Zipf models word-frequency ranks: P(rank r) ∝ 1/r^s for r in 1..N.
// The paper's inclusion-problem argument ("the sub-pattern could be vastly
// more common than the full modeled pattern... an obvious implication of
// Zipf's law") is quantified with this model in internal/core.
type Zipf struct {
	S    float64 // exponent, typically ~1 for natural language
	N    int     // vocabulary size
	norm float64
}

// NewZipf builds a Zipf distribution over ranks 1..n with exponent s.
func NewZipf(s float64, n int) (*Zipf, error) {
	if n <= 0 {
		return nil, errors.New("stats: Zipf needs n > 0")
	}
	if s < 0 {
		return nil, errors.New("stats: Zipf needs s >= 0")
	}
	sum := 0.0
	for r := 1; r <= n; r++ {
		sum += 1 / math.Pow(float64(r), s)
	}
	return &Zipf{S: s, N: n, norm: sum}, nil
}

// PMF returns P(rank r), 1-indexed.
func (z *Zipf) PMF(r int) float64 {
	if r < 1 || r > z.N {
		return 0
	}
	return 1 / math.Pow(float64(r), z.S) / z.norm
}

// FrequencyRatio returns PMF(rankA)/PMF(rankB): how much more often the
// word at rankA occurs than the word at rankB. Used to estimate how much
// more frequent an including word's atomic sub-pattern is than the full
// target pattern.
func (z *Zipf) FrequencyRatio(rankA, rankB int) float64 {
	pb := z.PMF(rankB)
	if pb == 0 {
		return math.Inf(1)
	}
	return z.PMF(rankA) / pb
}
