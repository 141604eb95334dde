// Package scheme is the name table every CLI -scheme flag goes through:
// Parse resolves a canonical name or an alias to its config.Scheme,
// Names lists them for usage strings, and UsesPUB reports whether a
// scheme runs the PCB/PUB machinery. The schemes themselves are
// config.Scheme values; each policy decision is a switch on
// Scheme.Kind() where it acts, in internal/core (what a persist and a
// PUB eviction write) and internal/recovery (what recovery is modeled
// to cost).
package scheme

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/config"
)

// epochParam stands for triad's checkpoint epoch, a positive integer,
// in a name of the table.
const epochParam = "<epoch>"

// table is the one scheme-name table: each family's canonical
// config.Scheme.String() form, then the aliases a -scheme flag also
// accepts for it. A triad name without an epoch gets defaultTriadEpoch.
var table = []struct {
	canonical string
	aliases   []string
}{
	{"baseline-strict", []string{"baseline"}},
	{"thoth-wtsc", []string{"thoth", "wtsc"}},
	{"thoth-wtbc", []string{"wtbc"}},
	{"anubis-ecc", []string{"anubis", "ideal"}},
	{"triad-relaxed-" + epochParam, []string{"triad", "triad-relaxed", "triad-" + epochParam}},
}

// defaultTriadEpoch is the checkpoint interval "triad" without an
// explicit epoch resolves to: large enough that tree-write savings are
// visible at experiment scale, small enough that checkpoints still
// occur within a quick run.
const defaultTriadEpoch = 64

// Names returns every accepted scheme name (canonical forms first,
// then aliases), for flag usage strings and the Parse error.
func Names() []string {
	var names, aliases []string
	for _, f := range table {
		names = append(names, f.canonical)
		aliases = append(aliases, f.aliases...)
	}
	sort.Strings(aliases)
	return append(names, aliases...)
}

// Parse resolves a user-facing scheme name — a canonical
// Scheme.String() form or an alias, case-insensitively — to its
// config.Scheme, through config.ParseScheme of the canonical form.
// Unknown names get an error listing every accepted name.
func Parse(name string) (config.Scheme, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	for _, f := range table {
		for _, alias := range append([]string{f.canonical}, f.aliases...) {
			epoch := defaultTriadEpoch
			if prefix, ok := strings.CutSuffix(alias, epochParam); ok {
				rest, ok := strings.CutPrefix(n, prefix)
				if !ok {
					continue
				}
				var err error
				if epoch, err = strconv.Atoi(rest); err != nil || epoch < 1 {
					return config.Scheme{}, fmt.Errorf("scheme: bad triad epoch %q in %q (want a positive integer)", rest, name)
				}
			} else if n != alias {
				continue
			}
			return config.ParseScheme(strings.Replace(f.canonical, epochParam, strconv.Itoa(epoch), 1))
		}
	}
	return config.Scheme{}, fmt.Errorf("scheme: unknown scheme %q; registered schemes: %s",
		name, strings.Join(Names(), ", "))
}

// UsesPUB reports whether a scheme runs the PCB/PUB machinery (the
// Thoth schemes), for prefill and flag gating.
func UsesPUB(s config.Scheme) bool { return s.IsThoth() }
