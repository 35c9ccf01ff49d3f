package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"realsum/internal/census"
	"realsum/internal/corpus"
	"realsum/internal/sim"
)

// censusWalker builds the census corpus: the Stanford /u1 profile at
// the given scale, generator seed XORed with the root seed — the same
// convention as every other randomized pass, so -census at seed S
// replays the corpus the netsim passes saw at -seed S.
func censusWalker(scale float64, seed uint64) corpus.Walker {
	p := corpus.StanfordU1().Scale(scale)
	p.Seed ^= seed
	return p.Build()
}

// runCensus executes the polynomial-selection census and prints the
// two-lane report: analytic P_ud under the uniform assumption vs the
// injected miss rate and measured-mix P_ud over the real corpus, with
// any ranking inversion called out explicitly.
func runCensus(ctx context.Context, scale float64, seed uint64, workers int, progress *sim.Progress) error {
	start := time.Now()
	res, err := census.Run(ctx, census.Config{
		Walker:   censusWalker(scale, seed),
		Seed:     seed,
		Workers:  workers,
		Progress: progress,
	})
	if err != nil {
		return err
	}
	fmt.Println(res.Report())
	fmt.Fprintf(os.Stderr, "[census done in %v]\n", time.Since(start).Round(time.Millisecond))
	return nil
}
