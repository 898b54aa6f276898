package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"etsc/internal/stats"
	"etsc/internal/ts"
)

// PatternRelation classifies how a lexicon pattern relates to a target
// (§3.1-3.3).
type PatternRelation int

// Relations between a background pattern and the actionable target.
const (
	Unrelated PatternRelation = iota
	// PrefixOf: the target is a strict prefix of the pattern ("cat" /
	// "catalog") — the §3.1 prefix problem.
	PrefixOf
	// Includes: the pattern strictly contains the target away from its
	// start ("ballpoint" contains "point") — the §3.2 inclusion problem.
	Includes
	// HomophoneOf: the pattern is indistinguishable from the target in
	// the time series representation ("flour" / "flower") — the §3.3
	// homophone problem.
	HomophoneOf
)

// String names the relation.
func (r PatternRelation) String() string {
	switch r {
	case Unrelated:
		return "unrelated"
	case PrefixOf:
		return "prefix"
	case Includes:
		return "inclusion"
	case HomophoneOf:
		return "homophone"
	default:
		return fmt.Sprintf("PatternRelation(%d)", int(r))
	}
}

// LexiconEntry is one pattern in the deployment domain's vocabulary, with a
// frequency rank (1 = most common) used for Zipf weighting.
type LexiconEntry struct {
	Name   string
	Tokens []string // the pattern's atomic units (e.g. phonemes)
	Rank   int      // frequency rank; <= 0 means unknown
}

// Confusion is one confusable pattern found for a target.
type Confusion struct {
	Entry    LexiconEntry
	Relation PatternRelation
	// FrequencyWeight is the Zipf-estimated ratio of this pattern's
	// frequency to the target's (how many of these you will see per
	// target occurrence); 1 when ranks are unknown.
	FrequencyWeight float64
}

// ConfusabilityReport summarizes checklist item 2 for one target.
type ConfusabilityReport struct {
	Target     LexiconEntry
	Confusions []Confusion
	// ExpectedFalseTriggersPerTarget is the Zipf-weighted count of
	// confusable-pattern occurrences expected per true target occurrence.
	ExpectedFalseTriggersPerTarget float64
}

// AnalyzeLexiconConfusability scans a lexicon for prefix, inclusion and
// homophone relations to the target, weighting each confusable pattern by
// its Zipf frequency relative to the target's. zipf may be nil, in which
// case all weights are 1.
func AnalyzeLexiconConfusability(target LexiconEntry, lexicon []LexiconEntry, zipf *stats.Zipf) (ConfusabilityReport, error) {
	if len(target.Tokens) == 0 {
		return ConfusabilityReport{}, errors.New("core: target has no tokens")
	}
	rep := ConfusabilityReport{Target: target}
	for _, e := range lexicon {
		if e.Name == target.Name {
			continue
		}
		rel := relationOf(e.Tokens, target.Tokens)
		if rel == Unrelated {
			continue
		}
		w := 1.0
		if zipf != nil && e.Rank > 0 && target.Rank > 0 {
			w = zipf.FrequencyRatio(e.Rank, target.Rank)
		}
		rep.Confusions = append(rep.Confusions, Confusion{Entry: e, Relation: rel, FrequencyWeight: w})
		rep.ExpectedFalseTriggersPerTarget += w
	}
	sort.Slice(rep.Confusions, func(a, b int) bool {
		return rep.Confusions[a].FrequencyWeight > rep.Confusions[b].FrequencyWeight
	})
	return rep, nil
}

func relationOf(pattern, target []string) PatternRelation {
	if tokensEqual(pattern, target) {
		return HomophoneOf
	}
	if len(pattern) > len(target) && tokensEqual(pattern[:len(target)], target) {
		return PrefixOf
	}
	for i := 1; i+len(target) <= len(pattern); i++ {
		if tokensEqual(pattern[i:i+len(target)], target) {
			return Includes
		}
	}
	return Unrelated
}

func tokensEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// HomophoneResult is the empirical (signal-level) homophone probe of
// Fig. 5 for one target exemplar against one background source.
type HomophoneResult struct {
	Background string
	// NearestBackground are the distances of the k nearest non-target
	// background subsequences to the exemplar, ascending.
	NearestBackground []float64
	// IntraClassDist is the distance from the exemplar to its nearest
	// same-class sibling.
	IntraClassDist float64
}

// HomophonesExist reports the Fig. 5 phenomenon: some background
// subsequence is closer to the exemplar than its own class sibling.
func (h HomophoneResult) HomophonesExist() bool {
	return len(h.NearestBackground) > 0 && h.NearestBackground[0] < h.IntraClassDist
}

// ProbeHomophones searches background (a long non-target stream) for the k
// nearest z-normalized-ED neighbours of exemplar, and compares them against
// the exemplar's nearest same-class sibling distance.
func ProbeHomophones(name string, exemplar ts.Series, siblings []ts.Series, background ts.Series, k int) (HomophoneResult, error) {
	if len(siblings) == 0 {
		return HomophoneResult{}, errors.New("core: ProbeHomophones needs at least one sibling")
	}
	if k < 1 {
		k = 1
	}
	res := HomophoneResult{Background: name, IntraClassDist: math.Inf(1)}
	ze := ts.ZNorm(exemplar)
	for _, s := range siblings {
		if len(s) != len(exemplar) {
			return HomophoneResult{}, fmt.Errorf("core: sibling length %d != exemplar length %d", len(s), len(exemplar))
		}
		d := ts.Euclidean(ze, ts.ZNorm(s))
		if d < res.IntraClassDist {
			res.IntraClassDist = d
		}
	}
	matches, err := ts.TopMatches(exemplar, background, k, 0)
	if err != nil {
		return HomophoneResult{}, err
	}
	for _, m := range matches {
		res.NearestBackground = append(res.NearestBackground, m.Dist)
	}
	sort.Float64s(res.NearestBackground)
	return res, nil
}
