// Command tracegen synthesizes bursty query-arrival traces (the
// repository's stand-in for the paper's Bing query traces) and writes
// them as "timestamp_ns batch" lines.
//
// Usage:
//
//	tracegen -qps 500 -span 30s -burst-fraction 0.1 -o trace.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"smartharvest/internal/sim"
	"smartharvest/internal/traces"
)

func main() {
	cfg := traces.Config{QPS: 500, Span: 30 * sim.Second, BurstFraction: 0.1, BurstRate: 20,
		BurstWidth: 6 * sim.Millisecond, LoadWave: 0.3, WavePeriod: 20 * sim.Second, Seed: 1}
	flag.Float64Var(&cfg.QPS, "qps", cfg.QPS, "average request rate")
	flag.TextVar(&cfg.Span, "span", cfg.Span, "trace length")
	flag.Float64Var(&cfg.BurstFraction, "burst-fraction", cfg.BurstFraction, "fraction of requests arriving in bursts")
	flag.Float64Var(&cfg.BurstRate, "burst-rate", cfg.BurstRate, "bursts per second")
	flag.TextVar(&cfg.BurstWidth, "burst-width", cfg.BurstWidth, "burst spread")
	flag.Float64Var(&cfg.LoadWave, "load-wave", cfg.LoadWave, "slow sinusoidal load modulation amplitude (0..1)")
	flag.TextVar(&cfg.WavePeriod, "wave-period", cfg.WavePeriod, "load modulation period")
	flag.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "RNG seed")
	out := flag.String("o", "-", "output file, or - for stdout")
	flag.Parse()

	events, err := traces.Generate(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "tracegen: close: %v\n", err)
				os.Exit(1)
			}
		}()
		w = f
	}
	if err := traces.Write(w, events); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "tracegen: %d events over %v (%.1f qps)\n",
		len(events), cfg.Span, float64(len(events))/cfg.Span.Seconds())
}
