package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Family is one metric family of a parsed exposition: its name, HELP
// text as written, TYPE, and samples in exposition order.
type Family struct {
	Name    string
	Help    string
	Type    Type
	Samples []Sample
}

// Sample is one sample line of a Family.
type Sample struct {
	// Name is the family's name, or in a histogram the family's name with
	// its _bucket, _sum or _count suffix.
	Name string
	// Labels holds the label pairs between the braces as written, "" when
	// the sample has none.
	Labels string
	Value  float64
}

// WriteTo renders f in the text format: its # HELP line (when it has
// help), its # TYPE line, and its samples. It implements io.WriterTo.
func (f *Family) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	if f.Help != "" {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, f.Help)
	}
	fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Type)
	for _, s := range f.Samples {
		b.WriteString(s.Name)
		if s.Labels != "" {
			b.WriteString("{" + s.Labels + "}")
		}
		b.WriteString(" " + formatValue(s.Value) + "\n")
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Lint parses a Prometheus text-format (0.0.4) exposition and returns the
// first violation Parse finds, or nil when the payload is well-formed. It
// is the in-test validator behind the /metrics acceptance criterion: a
// real scraper must be able to ingest what the endpoint serves.
func Lint(r io.Reader) error {
	_, err := Parse(r)
	return err
}

// Parse reads a Prometheus text-format (0.0.4) exposition into its
// families, in exposition order, and fails on the first violation:
//
//   - every sample line parses (name, optional labels, float value,
//     optional integer timestamp, which is checked and not kept),
//   - metric and label names match the data model,
//   - a # TYPE line precedes a family's samples and names a known type,
//   - each family is one group: a sample belongs to the most recent
//     TYPE'd family (histograms may add _bucket/_sum/_count suffixes;
//     other types may not), and no family is TYPE'd twice,
//   - no duplicate series within the exposition,
//   - histogram buckets carry an le label, are cumulative (non-decreasing
//     with ascending le), include the +Inf bucket, and agree with _count.
//
// A # HELP line sets the help of the family it names, before or after
// that family's # TYPE line; other comments are ignored.
func Parse(r io.Reader) ([]Family, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)

	var fams []Family
	help := map[string]string{}
	seen := map[string]bool{} // full series key → present
	typed := map[string]bool{}
	type histState struct {
		buckets []struct {
			le  float64
			cum float64
		}
		count    float64
		hasCount bool
		hasInf   bool
	}
	hists := map[string]*histState{} // family+labels without le → bucket state
	lineNo := 0

	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 3 && fields[1] == "HELP" {
				if len(fields) == 4 {
					help[fields[2]] = fields[3]
				}
				continue
			}
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) < 4 {
					return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
				}
				name, typ := fields[2], Type(fields[3])
				if err := lintName(name, false); err != nil {
					return nil, fmt.Errorf("line %d: %v", lineNo, err)
				}
				switch typ {
				case TypeCounter, TypeGauge, TypeHistogram, "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
				}
				if typed[name] {
					return nil, fmt.Errorf("line %d: family %q TYPE'd twice", lineNo, name)
				}
				typed[name] = true
				fams = append(fams, Family{Name: name, Type: typ})
			}
			continue
		}

		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if len(fams) == 0 {
			return nil, fmt.Errorf("line %d: sample %q has no preceding # TYPE", lineNo, s.Name)
		}
		fam := &fams[len(fams)-1]
		sub, ok := suffixOf(s.Name, fam.Name)
		if !ok {
			return nil, fmt.Errorf("line %d: sample %q outside the group of its family (current family %q)", lineNo, s.Name, fam.Name)
		}
		if fam.Type != TypeHistogram && sub != "" {
			return nil, fmt.Errorf("line %d: %q: suffix %q on non-histogram family %q", lineNo, s.Name, sub, fam.Name)
		}
		key := s.Name + "{" + s.Labels + "}"
		if seen[key] {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineNo, key)
		}
		seen[key] = true
		fam.Samples = append(fam.Samples, s)

		if fam.Type == TypeHistogram {
			if sub == "" {
				return nil, fmt.Errorf("line %d: bare sample %q in histogram family %q", lineNo, s.Name, fam.Name)
			}
			hkey := fam.Name + "{" + stripLE(s.Labels) + "}"
			st := hists[hkey]
			if st == nil {
				st = &histState{}
				hists[hkey] = st
			}
			switch sub {
			case "_bucket":
				le, ok := leOf(s.Labels)
				if !ok {
					return nil, fmt.Errorf("line %d: histogram bucket %s without le label", lineNo, key)
				}
				if n := len(st.buckets); n > 0 {
					prev := st.buckets[n-1]
					if le <= prev.le {
						return nil, fmt.Errorf("line %d: %s: le %v not ascending after %v", lineNo, key, le, prev.le)
					}
					if s.Value < prev.cum {
						return nil, fmt.Errorf("line %d: %s: cumulative bucket count %v < previous %v", lineNo, key, s.Value, prev.cum)
					}
				}
				st.buckets = append(st.buckets, struct{ le, cum float64 }{le, s.Value})
				if math.IsInf(le, 1) {
					st.hasInf = true
				}
			case "_count":
				st.count = s.Value
				st.hasCount = true
			case "_sum":
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for key, st := range hists {
		if !st.hasInf {
			return nil, fmt.Errorf("histogram %s: no +Inf bucket", key)
		}
		if !st.hasCount {
			return nil, fmt.Errorf("histogram %s: no _count sample", key)
		}
		if n := len(st.buckets); n > 0 && st.buckets[n-1].cum != st.count {
			return nil, fmt.Errorf("histogram %s: +Inf bucket %v != _count %v", key, st.buckets[n-1].cum, st.count)
		}
	}
	for i := range fams {
		fams[i].Help = help[fams[i].Name]
	}
	return fams, nil
}

// parseSample splits one sample line into its name, the label pairs
// between its braces, and its value, and checks its optional timestamp.
func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return Sample{}, fmt.Errorf("unbalanced braces in %q", line)
		}
		s.Labels = rest[i+1 : j]
		if err := lintLabels(s.Labels); err != nil {
			return Sample{}, fmt.Errorf("%q: %v", line, err)
		}
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.SplitN(rest, " ", 2)
		if len(fields) != 2 {
			return Sample{}, fmt.Errorf("no value in sample %q", line)
		}
		s.Name, rest = fields[0], strings.TrimSpace(fields[1])
	}
	if err := lintName(s.Name, false); err != nil {
		return Sample{}, err
	}
	valText := strings.Fields(rest)
	if len(valText) < 1 || len(valText) > 2 {
		return Sample{}, fmt.Errorf("want 'value [timestamp]' after series in %q", line)
	}
	v, err := parseValue(valText[0])
	if err != nil {
		return Sample{}, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s.Value = v
	if len(valText) == 2 {
		if _, err := strconv.ParseInt(valText[1], 10, 64); err != nil {
			return Sample{}, fmt.Errorf("bad timestamp in %q: %v", line, err)
		}
	}
	return s, nil
}

// parseValue parses a sample value including the Inf/NaN spellings.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// lintName validates a metric (or label) name against the data model.
func lintName(name string, label bool) error {
	if name == "" {
		return fmt.Errorf("empty name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c == ':' && !label:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return fmt.Errorf("invalid name %q", name)
		}
	}
	return nil
}

// lintLabels validates the name="value",... pairs between a sample's
// braces.
func lintLabels(body string) error {
	if body == "" {
		return nil
	}
	for _, pair := range splitLabelPairs(body) {
		name, val, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("label pair %q has no '='", pair)
		}
		if err := lintName(name, true); err != nil {
			return err
		}
		if len(val) < 2 || val[0] != '"' || val[len(val)-1] != '"' {
			return fmt.Errorf("label %s value %q not quoted", name, val)
		}
	}
	return nil
}

// splitLabelPairs splits on commas outside quoted values.
func splitLabelPairs(body string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			i++ // skip escaped char
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, body[start:])
	return out
}

// suffixOf reports whether a sample name belongs to family fam: the name
// itself (suffix "") or fam with a histogram suffix.
func suffixOf(name, fam string) (suffix string, ok bool) {
	if name == fam {
		return "", true
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if name == fam+suf {
			return suf, true
		}
	}
	return "", false
}

// stripLE removes the le pair from a bucket's labels so every bucket of
// one histogram series shares a key.
func stripLE(labels string) string {
	if labels == "" {
		return ""
	}
	var kept []string
	for _, pair := range splitLabelPairs(labels) {
		if !strings.HasPrefix(pair, "le=") {
			kept = append(kept, pair)
		}
	}
	return strings.Join(kept, ",")
}

// leOf extracts the le bound from a bucket's labels.
func leOf(labels string) (float64, bool) {
	for _, pair := range splitLabelPairs(labels) {
		if val, ok := strings.CutPrefix(pair, "le="); ok {
			v, err := parseValue(strings.Trim(val, `"`))
			return v, err == nil
		}
	}
	return 0, false
}
