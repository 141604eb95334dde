package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteProm renders the registry in the Prometheus text exposition
// format (version 0.0.4): families in name order, series in label
// order, `# HELP`/`# TYPE` once per family. Histograms emit cumulative
// `_bucket{le="..."}` samples up to the highest populated bucket plus
// the mandatory `{le="+Inf"}`, then `_sum` and `_count`. The output for
// a deterministic run is byte-stable (golden-tested).
func WriteProm(w io.Writer, r *Registry) error {
	bw := bufio.NewWriter(w)
	var lastFam *family
	r.each(func(f *family, s *series) {
		if f != lastFam {
			lastFam = f
			if f.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		}
		switch v := s.value.(type) {
		case *Counter:
			fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, v.Value())
		case *Gauge:
			fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, v.Value())
		case *Histogram:
			writePromHistogram(bw, f.name, s.labels, v)
		}
	})
	return bw.Flush()
}

// writePromHistogram renders one histogram series. The le label is
// appended to the series' constant labels.
func writePromHistogram(w *bufio.Writer, name, labels string, h *Histogram) {
	buckets, count, sum := h.Snapshot()
	last := 0
	for i, n := range buckets[:NumFiniteBuckets] {
		if n > 0 {
			last = i
		}
	}
	var cum int64
	for i := 0; i <= last; i++ {
		cum += buckets[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(labels, formatLE(i)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(labels, "+Inf"), count)
	fmt.Fprintf(w, "%s_sum%s %d\n", name, labels, sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, count)
}

// formatLE renders the upper bound of finite bucket i.
func formatLE(i int) string {
	return strconv.FormatInt(int64(1)<<uint(i), 10)
}

// withLE merges the le label into a rendered constant-label string.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// ValidateProm parses r as Prometheus text exposition format and checks
// its structural invariants: every sample line parses as
// name[{labels}] value, every family's TYPE comment precedes its
// samples and names a known type, histogram families expose _bucket
// samples with an le label, cumulative bucket counts that never
// decrease, a final +Inf bucket equal to _count, and matching _sum and
// _count samples. It returns the number of sample lines validated and
// the first violation found (with its 1-based line number). The
// metrics-smoke CI lane runs the runner's golden exposition through this
// validator.
func ValidateProm(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	types := make(map[string]string) // family -> declared type
	type histState struct {
		lastCum  int64
		infCum   int64
		hasInf   bool
		count    int64
		hasCount bool
		sum      bool
	}
	hists := make(map[string]*histState) // family+labels (le stripped)
	n := 0
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimRight(sc.Text(), " ")
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.SplitN(text, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return n, fmt.Errorf("line %d: malformed comment %q", line, text)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return n, fmt.Errorf("line %d: malformed TYPE comment", line)
				}
				name, typ := fields[2], fields[3]
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return n, fmt.Errorf("line %d: unknown type %q", line, typ)
				}
				if prev, ok := types[name]; ok && prev != typ {
					return n, fmt.Errorf("line %d: %s re-typed %s -> %s", line, name, prev, typ)
				}
				types[name] = typ
			}
			continue
		}
		name, labels, value, err := parsePromSample(text)
		if err != nil {
			return n, fmt.Errorf("line %d: %v", line, err)
		}
		fam := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base == name {
				continue
			}
			// _sum/_count (and _bucket) belong to the base family for
			// histograms; summaries share the _sum/_count convention.
			if bt := types[base]; bt == "histogram" || bt == "summary" {
				fam = base
				break
			}
		}
		if typ, ok := types[fam]; !ok {
			return n, fmt.Errorf("line %d: sample %s precedes its TYPE comment", line, name)
		} else if typ == "histogram" && fam == name {
			return n, fmt.Errorf("line %d: bare sample %s for histogram family", line, name)
		}
		if types[fam] == "histogram" {
			le, rest, hasLE := splitLE(labels)
			key := fam + rest
			st := hists[key]
			if st == nil {
				st = &histState{}
				hists[key] = st
			}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if !hasLE {
					return n, fmt.Errorf("line %d: histogram bucket without le label", line)
				}
				cum := int64(value)
				if cum < st.lastCum {
					return n, fmt.Errorf("line %d: bucket counts decrease (%d < %d)", line, cum, st.lastCum)
				}
				st.lastCum = cum
				if le == "+Inf" {
					st.hasInf = true
					st.infCum = cum
				}
			case strings.HasSuffix(name, "_sum"):
				st.sum = true
			case strings.HasSuffix(name, "_count"):
				st.hasCount = true
				st.count = int64(value)
			}
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	for key, st := range hists {
		if !st.hasInf {
			return n, fmt.Errorf("histogram %s: missing +Inf bucket", key)
		}
		if !st.sum || !st.hasCount {
			return n, fmt.Errorf("histogram %s: missing _sum or _count", key)
		}
		if st.count != st.infCum {
			return n, fmt.Errorf("histogram %s: _count %d != +Inf bucket %d", key, st.count, st.infCum)
		}
	}
	return n, nil
}

// parsePromSample splits `name{labels} value` (labels optional).
func parsePromSample(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unbalanced braces in %q", line)
		}
		name, labels, rest = rest[:i], rest[i:j+1], rest[j+1:]
	} else {
		k := strings.IndexByte(rest, ' ')
		if k < 0 {
			return "", "", 0, fmt.Errorf("no value in %q", line)
		}
		name, rest = rest[:k], rest[k:]
	}
	if !validName(name) {
		return "", "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("bad sample value in %q: %v", line, err)
	}
	return name, labels, v, nil
}

// splitLE extracts the le label from a rendered label string, returning
// the le value and the label string with le removed (for grouping a
// histogram's buckets with its _sum/_count).
func splitLE(labels string) (le, rest string, ok bool) {
	if labels == "" {
		return "", "", false
	}
	inner := labels[1 : len(labels)-1]
	parts := splitLabelPairs(inner)
	var kept []string
	for _, p := range parts {
		if strings.HasPrefix(p, `le="`) && strings.HasSuffix(p, `"`) {
			le = p[len(`le="`) : len(p)-1]
			ok = true
			continue
		}
		kept = append(kept, p)
	}
	if len(kept) == 0 {
		return le, "", ok
	}
	return le, "{" + strings.Join(kept, ",") + "}", ok
}

// splitLabelPairs splits `k="v",k2="v2"` on commas outside quotes.
func splitLabelPairs(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// sortedFamilyNames returns the registered family names in order
// (diagnostics and tests).
func (r *Registry) sortedFamilyNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// FamilyNames returns the names of every registered family, sorted.
func (r *Registry) FamilyNames() []string { return r.sortedFamilyNames() }
