package etsc

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"etsc/internal/dataset"
)

// This file is the package's construction API. Every algorithm is built
// through one entry point:
//
//	c, err := etsc.Train(etsc.MustParseSpec("ects:support=0"), train)
//
// A Spec names an algorithm plus its typed parameters and round-trips
// through JSON and a flag-friendly string form, so CLIs, config files, and
// the serving wire protocol all describe classifiers declaratively. An
// algorithm plugs in by registering a named Builder; nothing else in the
// system needs to change to make it reachable from every CLI flag and
// serving endpoint that accepts a spec.

// Spec names an algorithm and its parameters. The zero Params means "all
// defaults". Param values are JSON scalars: bool, float64 (all numbers),
// or string; integers may arrive as float64 (the JSON decoding) and are
// accepted when integral.
type Spec struct {
	Algo   string         `json:"algo"`
	Params map[string]any `json:"params,omitempty"`
}

// ParseSpec parses the flag form "algo:key=value,key=value" (or just
// "algo"). Values parse as bool, then number, then fall back to string.
func ParseSpec(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	algo, rest, cut := strings.Cut(s, ":")
	algo = strings.TrimSpace(algo)
	if algo == "" {
		return Spec{}, fmt.Errorf("etsc: empty algorithm in spec %q", s)
	}
	spec := Spec{Algo: strings.ToLower(algo)}
	if !cut || strings.TrimSpace(rest) == "" {
		return spec, nil
	}
	spec.Params = map[string]any{}
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(kv, "=")
		key = strings.ToLower(strings.TrimSpace(key))
		if !ok || key == "" {
			return Spec{}, fmt.Errorf("etsc: bad spec parameter %q in %q (want key=value)", kv, s)
		}
		val = strings.TrimSpace(val)
		switch {
		case val == "true" || val == "false":
			spec.Params[key] = val == "true"
		default:
			if f, err := strconv.ParseFloat(val, 64); err == nil {
				spec.Params[key] = f
			} else {
				spec.Params[key] = val
			}
		}
	}
	return spec, nil
}

// MustParseSpec is ParseSpec for known-good literals; it panics on error.
func MustParseSpec(s string) Spec {
	spec, err := ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return spec
}

// String renders the canonical flag form: lower-case algorithm, parameters
// sorted by key. ParseSpec(s.String()) is equivalent to s for specs whose
// values are JSON scalars free of ',' and '=' — the flag grammar cannot
// quote those characters, so specs carrying them only round-trip through
// the JSON form. Every spec ParseSpec itself produces round-trips exactly.
func (s Spec) String() string {
	var b strings.Builder
	b.WriteString(strings.ToLower(s.Algo))
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i == 0 {
			b.WriteByte(':')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		switch v := s.Params[k].(type) {
		case float64:
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		case int:
			b.WriteString(strconv.Itoa(v))
		case int64:
			b.WriteString(strconv.FormatInt(v, 10))
		case bool:
			b.WriteString(strconv.FormatBool(v))
		default:
			fmt.Fprintf(&b, "%v", v)
		}
	}
	return b.String()
}

// Options is the construction configuration Train resolves from its
// functional options:
//
//	Train(spec, nil, WithTrainContext(ctx))
type Options struct {
	ctx *TrainContext
}

// Option mutates an Options.
type Option func(*Options)

// WithTrainContext makes Train read a caller-owned memoized training
// substrate (prefix-distance matrix, truncation cache, worker pool), so
// every trainer on the context shares it instead of building its own. The
// context's training set must be the one passed to Train (or pass nil to
// Train and the context's set is used).
func WithTrainContext(c *TrainContext) Option { return func(o *Options) { o.ctx = c } }

// Params is a Spec's parameter set during building. Builders read each
// parameter with a typed getter and a default, then call Finish, which
// reports the first type error and any parameter the builder never read
// (catching typos like "suport=0" instead of silently ignoring them).
type Params struct {
	algo string
	m    map[string]any
	used map[string]bool
	err  error
}

func newParams(algo string, m map[string]any) *Params {
	return &Params{algo: algo, m: m, used: map[string]bool{}}
}

func (p *Params) setErr(err error) {
	if p.err == nil {
		p.err = err
	}
}

func (p *Params) lookup(key string) (any, bool) {
	p.used[key] = true
	v, ok := p.m[key]
	return v, ok
}

// Bool reads a bool parameter.
func (p *Params) Bool(key string, def bool) bool {
	v, ok := p.lookup(key)
	if !ok {
		return def
	}
	b, ok := v.(bool)
	if !ok {
		p.setErr(fmt.Errorf("etsc: %s parameter %q: want bool, got %v (%T)", p.algo, key, v, v))
		return def
	}
	return b
}

// Float reads a finite float64 parameter (bare ints are accepted).
func (p *Params) Float(key string, def float64) float64 {
	v, ok := p.lookup(key)
	if !ok {
		return def
	}
	var f float64
	switch n := v.(type) {
	case float64:
		f = n
	case int:
		f = float64(n)
	case int64:
		f = float64(n)
	default:
		p.setErr(fmt.Errorf("etsc: %s parameter %q: want number, got %v (%T)", p.algo, key, v, v))
		return def
	}
	// NaN slips through every trainer's range check (each comparison is
	// false), and specs arrive from outside the program.
	if math.IsNaN(f) || math.IsInf(f, 0) {
		p.setErr(fmt.Errorf("etsc: %s parameter %q: want a finite number, got %v", p.algo, key, f))
		return def
	}
	return f
}

// Int reads an int parameter; float64 values (the JSON number decoding)
// are accepted when integral.
func (p *Params) Int(key string, def int) int {
	v, ok := p.lookup(key)
	if !ok {
		return def
	}
	switch n := v.(type) {
	case int:
		return n
	case int64:
		return int(n)
	case float64:
		if n == float64(int(n)) {
			return int(n)
		}
		p.setErr(fmt.Errorf("etsc: %s parameter %q: want integer, got %v", p.algo, key, n))
		return def
	}
	p.setErr(fmt.Errorf("etsc: %s parameter %q: want integer, got %v (%T)", p.algo, key, v, v))
	return def
}

// Int64 reads an int64 parameter with the same coercions as Int.
func (p *Params) Int64(key string, def int64) int64 {
	v, ok := p.lookup(key)
	if !ok {
		return def
	}
	switch n := v.(type) {
	case int:
		return int64(n)
	case int64:
		return n
	case float64:
		if n == float64(int64(n)) {
			return int64(n)
		}
	}
	p.setErr(fmt.Errorf("etsc: %s parameter %q: want integer, got %v (%T)", p.algo, key, v, v))
	return def
}

// String reads a string parameter.
func (p *Params) String(key string, def string) string {
	v, ok := p.lookup(key)
	if !ok {
		return def
	}
	s, ok := v.(string)
	if !ok {
		p.setErr(fmt.Errorf("etsc: %s parameter %q: want string, got %v (%T)", p.algo, key, v, v))
		return def
	}
	return s
}

// Finish reports the first read error, or an error naming every parameter
// the builder did not recognize.
func (p *Params) Finish() error {
	if p.err != nil {
		return p.err
	}
	var unknown []string
	for k := range p.m {
		if !p.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		known := make([]string, 0, len(p.used))
		for k := range p.used {
			known = append(known, k)
		}
		sort.Strings(known)
		return fmt.Errorf("etsc: unknown %s parameter(s) %s (known: %s)",
			p.algo, strings.Join(unknown, ", "), strings.Join(known, ", "))
	}
	return nil
}

// Builder constructs one named algorithm from a parsed parameter set.
type Builder struct {
	// Name is the registry key (lower case).
	Name string
	// Doc is a one-line usage hint listing the accepted parameters.
	Doc string
	// Build trains the classifier on c's training set, through c. Train
	// resolves c: the caller's (WithTrainContext), or else a private
	// one-worker context. Implementations must read every parameter they
	// accept from p and then call p.Finish.
	Build func(c *TrainContext, p *Params) (EarlyClassifier, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Builder{}
)

// Register adds a Builder under its (lower-cased) name. Registering a
// duplicate or anonymous builder is an error.
func Register(b Builder) error {
	name := strings.ToLower(strings.TrimSpace(b.Name))
	if name == "" {
		return errors.New("etsc: Register: empty algorithm name")
	}
	if b.Build == nil {
		return fmt.Errorf("etsc: Register %q: nil Build", name)
	}
	b.Name = name
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("etsc: Register %q: already registered", name)
	}
	registry[name] = b
	return nil
}

// MustRegister is Register for init-time registrations; it panics on error.
func MustRegister(b Builder) {
	if err := Register(b); err != nil {
		panic(err)
	}
}

// Lookup returns the Builder registered under name (case-insensitive).
func Lookup(name string) (Builder, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := registry[strings.ToLower(strings.TrimSpace(name))]
	return b, ok
}

// Algorithms lists the registered algorithm names, sorted.
func Algorithms() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AlgorithmDocs returns "name — doc" lines for every registered builder,
// sorted by name; CLIs print it as the -spec help text.
func AlgorithmDocs() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for _, b := range registry {
		out = append(out, fmt.Sprintf("%s — %s", b.Name, b.Doc))
	}
	sort.Strings(out)
	return out
}

// Train builds the classifier a Spec describes. It is the single
// construction entry point behind which every algorithm in the package
// (and any externally Registered one) is reachable:
//
//   - Train(spec, train) trains serially, through a private TrainContext.
//   - Train(spec, nil, WithTrainContext(ctx)) shares ctx's memoized
//     distances and worker pool with every other trainer on the same
//     context.
//
// Both produce byte-identical models (decision-for-decision,
// posterior-for-posterior) for any worker count; the registry-equivalence
// battery pins this for every algorithm.
func Train(spec Spec, train *dataset.Dataset, opts ...Option) (EarlyClassifier, error) {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	b, ok := Lookup(spec.Algo)
	if !ok {
		return nil, fmt.Errorf("etsc: unknown algorithm %q (registered: %s)",
			spec.Algo, strings.Join(Algorithms(), ", "))
	}
	c := o.ctx
	switch {
	case c != nil && train != nil && train != c.train:
		return nil, errors.New("etsc: Train: training set differs from the TrainContext's")
	case c == nil && train == nil:
		return nil, errors.New("etsc: Train: nil training set (pass data or WithTrainContext)")
	case c == nil:
		var err error
		if c, err = NewTrainContext(train, 1); err != nil {
			return nil, err
		}
	}
	return b.Build(c, newParams(b.Name, spec.Params))
}

// TrainSpecString is Train over the flag form of a spec.
func TrainSpecString(s string, train *dataset.Dataset, opts ...Option) (EarlyClassifier, error) {
	spec, err := ParseSpec(s)
	if err != nil {
		return nil, err
	}
	return Train(spec, train, opts...)
}

// Registered algorithm names.
const (
	AlgoECTS          = "ects"
	AlgoECDIRE        = "ecdire"
	AlgoCostAware     = "costaware"
	AlgoTEASER        = "teaser"
	AlgoEDSC          = "edsc"
	AlgoRelClass      = "relclass"
	AlgoProbThreshold = "probthreshold"
	AlgoFixedPrefix   = "fixedprefix"
)

func init() {
	MustRegister(Builder{
		Name: AlgoECTS,
		Doc:  "ECTS 1NN with minimum prediction lengths; params: relaxed=bool (default false), support=int (default 0)",
		Build: func(c *TrainContext, p *Params) (EarlyClassifier, error) {
			relaxed := p.Bool("relaxed", false)
			support := p.Int("support", 0)
			if err := p.Finish(); err != nil {
				return nil, err
			}
			return trainECTS(c, relaxed, support)
		},
	})
	MustRegister(Builder{
		Name: AlgoECDIRE,
		Doc:  "ECDIRE class-discriminativeness gating; params: acc=float (default 0.9), snapshots=int (default 20), sharpness=float (default 3)",
		Build: func(c *TrainContext, p *Params) (EarlyClassifier, error) {
			cfg := DefaultECDIREConfig()
			cfg.AccFraction = p.Float("acc", cfg.AccFraction)
			cfg.Snapshots = p.Int("snapshots", cfg.Snapshots)
			cfg.Sharpness = p.Float("sharpness", cfg.Sharpness)
			if err := p.Finish(); err != nil {
				return nil, err
			}
			return trainECDIRE(c, cfg)
		},
	})
	MustRegister(Builder{
		Name: AlgoCostAware,
		Doc:  "cost-based decision rule; params: misclass=float (default 1), delay=float (default 0.5), snapshots=int (default 20)",
		Build: func(c *TrainContext, p *Params) (EarlyClassifier, error) {
			cfg := DefaultCostAwareConfig()
			cfg.MisclassCost = p.Float("misclass", cfg.MisclassCost)
			cfg.DelayCost = p.Float("delay", cfg.DelayCost)
			cfg.Snapshots = p.Int("snapshots", cfg.Snapshots)
			if err := p.Finish(); err != nil {
				return nil, err
			}
			return trainCostAware(c, cfg)
		},
	})
	MustRegister(Builder{
		Name: AlgoTEASER,
		Doc:  "TEASER two-tier snapshot classifier; params: snapshots=int (default 20), v=int (default 3), znorm=bool (default true), sigma=float (default 2.5)",
		Build: func(c *TrainContext, p *Params) (EarlyClassifier, error) {
			cfg := DefaultTEASERConfig()
			cfg.Snapshots = p.Int("snapshots", cfg.Snapshots)
			cfg.V = p.Int("v", cfg.V)
			cfg.ZNormPrefix = p.Bool("znorm", cfg.ZNormPrefix)
			cfg.GateSigma = p.Float("sigma", cfg.GateSigma)
			if err := p.Finish(); err != nil {
				return nil, err
			}
			return trainTEASER(c, cfg)
		},
	})
	MustRegister(Builder{
		Name: AlgoEDSC,
		Doc:  "early distinctive shapelets; params: method=che|kde, minlen, maxlen, lenstep, stride, maxseries, chek=float, kdeodds=float, maxshapelets",
		Build: func(c *TrainContext, p *Params) (EarlyClassifier, error) {
			method := CHE
			switch m := strings.ToLower(p.String("method", "che")); m {
			case "che":
				method = CHE
			case "kde":
				method = KDE
			default:
				return nil, fmt.Errorf("etsc: edsc parameter method=%q: want che or kde", m)
			}
			cfg := DefaultEDSCConfig(method)
			cfg.MinLen = p.Int("minlen", cfg.MinLen)
			cfg.MaxLen = p.Int("maxlen", cfg.MaxLen)
			cfg.LenStep = p.Int("lenstep", cfg.LenStep)
			cfg.StartStride = p.Int("stride", cfg.StartStride)
			cfg.MaxSeries = p.Int("maxseries", cfg.MaxSeries)
			cfg.CHEK = p.Float("chek", cfg.CHEK)
			cfg.KDEOdds = p.Float("kdeodds", cfg.KDEOdds)
			cfg.MaxShapelets = p.Int("maxshapelets", cfg.MaxShapelets)
			if err := p.Finish(); err != nil {
				return nil, err
			}
			return newEDSC(c.train, cfg, c.workers)
		},
	})
	MustRegister(Builder{
		Name: AlgoRelClass,
		Doc:  "reliability-thresholded Gaussian models; params: tau=float (default 0.1), pooled=bool (LDG variant), samples, minstd=float, seed, minprefix",
		Build: func(c *TrainContext, p *Params) (EarlyClassifier, error) {
			cfg := DefaultRelClassConfig(p.Bool("pooled", false))
			cfg.Tau = p.Float("tau", cfg.Tau)
			cfg.Samples = p.Int("samples", cfg.Samples)
			cfg.MinStd = p.Float("minstd", cfg.MinStd)
			cfg.Seed = p.Int64("seed", cfg.Seed)
			cfg.MinPrefix = p.Int("minprefix", cfg.MinPrefix)
			if err := p.Finish(); err != nil {
				return nil, err
			}
			// RelClass takes only the training set from its context.
			return trainRelClass(c.train, cfg)
		},
	})
	MustRegister(Builder{
		Name: AlgoProbThreshold,
		Doc:  "commit when the softmin posterior clears a threshold; params: threshold=float (default 0.8), minprefix=int (default 10)",
		Build: func(c *TrainContext, p *Params) (EarlyClassifier, error) {
			threshold := p.Float("threshold", 0.8)
			minPrefix := p.Int("minprefix", 10)
			if err := p.Finish(); err != nil {
				return nil, err
			}
			// No training-time computation beyond label caching, so
			// only the training set comes from the context.
			return trainProbThreshold(c.train, threshold, minPrefix)
		},
	})
	MustRegister(Builder{
		Name: AlgoFixedPrefix,
		Doc:  "1NN at one fixed prefix length; params: at=int (default half the series), znorm=bool (default true)",
		Build: func(c *TrainContext, p *Params) (EarlyClassifier, error) {
			at := p.Int("at", max(1, c.train.SeriesLen()/2))
			znorm := p.Bool("znorm", true)
			if err := p.Finish(); err != nil {
				return nil, err
			}
			return trainFixedPrefix(c, at, znorm)
		},
	})
}
