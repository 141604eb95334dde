package harness

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/recovery"
	"repro/internal/stats"
	"repro/internal/workload"
)

// schemeZoo is the comparison set of the cross-scheme experiment: the
// strict baseline, both Thoth eviction policies, the ECC-co-location
// ideal, and a Triad-NVM-style relaxed-persistence point. The triad
// epoch is large (4096 persisted blocks per tree checkpoint) so the
// relaxation is visible: almost every dirty tree node stays on chip for
// the whole measured phase instead of being written back.
func schemeZoo() []config.Scheme {
	return []config.Scheme{
		config.BaselineStrict,
		config.ThothWTSC,
		config.ThothWTBC,
		config.AnubisECC,
		config.TriadRelaxed(4096),
	}
}

// schemeRow is one measured (scheme, workload) cell of the zoo.
type schemeRow struct {
	cycles int64
	data   int64
	total  int64
	tree   int64
	recCyc int64
	rootOK bool
}

// Schemes publishes the cross-scheme comparison ("scheme zoo"): every
// scheme of the comparison set runs the identical workloads, and the
// report compares the persist path (execution cycles of the measured
// phase), NVM write amplification (total block writes per data-block
// write), tree-node write traffic, and the modeled recovery bill after
// a crash at the end of the measured phase (recovery's per-scheme
// model: zero for the strict baseline and co-location, the PUB replay
// for Thoth, the full tree rebuild for relaxed persistence).
//
// The comparison set is Experiments.Zoo when set (the CLI's -schemes
// flag) and schemeZoo otherwise.
//
// The experiment asserts the relaxed-persistence claim it exists to
// demonstrate: whenever the set contains both the strict baseline and a
// triad scheme, triad must persist measurably fewer tree-node writes
// while still recovering a verified root on every crash image — a
// violation is returned as an error, not printed.
func (e *Experiments) Schemes() error {
	zoo := e.Zoo
	if len(zoo) == 0 {
		zoo = schemeZoo()
	}
	rows := make(map[config.Scheme]map[string]schemeRow, len(zoo))
	for _, s := range zoo {
		rows[s] = make(map[string]schemeRow, len(workload.Names()))
		for _, wl := range workload.Names() {
			cfg := e.Scale.apply(config.Default().WithScheme(s))
			// A small MT cache puts real pressure on tree persistence:
			// with the Table I cache nothing evicts at experiment scale
			// and every scheme trivially writes zero tree nodes. The
			// same machine runs every scheme, so the comparison stays
			// apples-to-apples; only the tree write-back policy differs.
			cfg.MTCacheBytes = 1 << 10
			rc := e.runConfig(cfg, wl)
			rc.MeasureTxs = e.Scale.MeasureTxs / 4
			res, err := Run(rc)
			if err != nil {
				return fmt.Errorf("schemes(%v, %s): %w", s, wl, err)
			}
			row := schemeRow{
				cycles: res.Cycles,
				data:   res.Stats.Writes(stats.WriteData),
				total:  res.Stats.TotalWrites(),
				tree:   res.Stats.Writes(stats.WriteTree),
			}
			if err := res.Runner.Controller().Crash(res.Runner.Now()); err != nil {
				return fmt.Errorf("schemes crash(%v, %s): %w", s, wl, err)
			}
			rep, err := recovery.Recover(cfg, res.Controller.Device())
			if err != nil {
				return fmt.Errorf("schemes recovery(%v, %s): %w", s, wl, err)
			}
			row.recCyc = rep.EstimatedCycles
			row.rootOK = rep.RootVerified
			rows[s][wl] = row
		}
	}

	fmt.Fprintf(e.Out, "\nScheme zoo: cross-scheme comparison (persist path, write amplification, recovery)\n")
	fmt.Fprintf(e.Out, "%-18s %-10s %12s %9s %7s %8s %13s %7s\n",
		"scheme", "workload", "cycles", "writes", "wramp", "tree-wr", "recovery-cyc", "rootOK")
	treeTotal := make(map[config.Scheme]int64, len(zoo))
	for _, s := range zoo {
		for _, wl := range workload.Names() {
			r := rows[s][wl]
			amp := 0.0
			if r.data > 0 {
				amp = float64(r.total) / float64(r.data)
			}
			fmt.Fprintf(e.Out, "%-18v %-10s %12d %9d %7.2f %8d %13d %7v\n",
				s, wl, r.cycles, r.total, amp, r.tree, r.recCyc, r.rootOK)
			treeTotal[s] += r.tree
			if !r.rootOK {
				return fmt.Errorf("schemes(%v, %s): recovered root did not verify", s, wl)
			}
		}
	}

	var triadScheme config.Scheme
	haveBase, haveTriad := false, false
	for _, s := range zoo {
		switch {
		case s == config.BaselineStrict:
			haveBase = true
		case s.Kind() == config.KindTriadRelaxed:
			triadScheme, haveTriad = s, true
		}
	}
	if !haveBase || !haveTriad {
		return nil
	}
	base := treeTotal[config.BaselineStrict]
	triad := treeTotal[triadScheme]
	share := 0.0
	if base > 0 {
		share = 100 * float64(triad) / float64(base)
	}
	fmt.Fprintf(e.Out, "%-18s tree-node writes: baseline=%d %v=%d (%.1f%% of strict)\n",
		"summary", base, triadScheme, triad, share)
	fmt.Fprintf(e.Out, "(relaxed persistence trades tree writes during execution for a full tree rebuild at recovery)\n")
	if triad >= base {
		return fmt.Errorf("schemes: %v persisted %d tree-node writes, not fewer than the strict baseline's %d",
			triadScheme, triad, base)
	}
	return nil
}
