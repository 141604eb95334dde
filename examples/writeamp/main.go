// writeamp: compares the write amplification and performance of the
// four persistence schemes on one benchmark — a miniature of Figures 8
// and 9. It shows the paper's core claim directly: on interfaces without
// host-visible ECC, strict metadata persistence (the adapted-Anubis
// baseline) pays two extra block writes per persist, while Thoth's
// PCB/PUB machinery approaches the hypothetical ECC-co-location ideal.
package main

import (
	"flag"
	"fmt"
	"log"

	thoth "repro"
	"repro/internal/stats"
)

func main() {
	wl := flag.String("workload", "hashmap", "benchmark: btree|ctree|hashmap|rbtree|swap")
	txs := flag.Int("txs", 3000, "measured transactions")
	flag.Parse()

	schemes := []thoth.Scheme{thoth.BaselineStrict, thoth.WTSC, thoth.WTBC, thoth.AnubisECC}

	type row struct {
		scheme thoth.Scheme
		cycles int64
		writes int64
		data   float64
	}
	var rows []row
	for _, s := range schemes {
		cfg := thoth.DefaultConfig().WithScheme(s)
		cfg.MemBytes = 1 << 30
		cfg.PUBBytes = 1 << 20
		cfg.LLCBytes = 1 << 20
		res, err := thoth.RunWorkload(thoth.RunConfig{
			Config:     cfg,
			Workload:   *wl,
			WarmupTxs:  *txs / 5,
			MeasureTxs: *txs,
			SetupKeys:  8192,
		})
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{
			scheme: s,
			cycles: res.Stats.Cycles,
			writes: res.Stats.TotalWrites(),
			data:   res.Stats.WriteShare(stats.WriteData),
		})
	}

	base := rows[0]
	fmt.Printf("workload %s, %d transactions\n\n", *wl, *txs)
	fmt.Printf("%-16s %14s %10s %12s %10s %12s\n",
		"scheme", "cycles", "speedup", "NVM writes", "vs base", "data share")
	for _, r := range rows {
		fmt.Printf("%-16s %14d %9.3fx %12d %9.1f%% %11.1f%%\n",
			r.scheme, r.cycles,
			float64(base.cycles)/float64(r.cycles),
			r.writes,
			100*float64(r.writes)/float64(base.writes),
			100*r.data)
	}
	fmt.Println("\nreading the table: the baseline persists full counter and MAC")
	fmt.Println("blocks with every data write; Thoth replaces them with packed")
	fmt.Println("partial-update blocks (PUB) and approaches the AnubisECC ideal,")
	fmt.Println("which co-locates metadata for free in hypothetical ECC bits.")
}
