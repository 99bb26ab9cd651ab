package main

import (
	"fmt"
	"io"
	"math"
)

// verdict is how one end-to-end metric of one workload moved from run A to
// run B, judged against the bound BENCHMARK.json fixes for it.
type verdict string

const (
	verdictOK verdict = "ok"
	// verdictWorse: B's median is worse than A's by more than the bound.
	verdictWorse verdict = "worse"
	// verdictUnresolved: it is, but one side's repeats spread wider than the
	// bound and the two sides' ranges overlap, so the runs cannot tell.
	verdictUnresolved verdict = "unresolved"
)

func judge(m metricDef, a, b sample) verdict {
	if a.Value == 0 {
		if b.Value == 0 {
			return verdictOK
		}
		return verdictUnresolved
	}
	worse := (b.Value - a.Value) / math.Abs(a.Value)
	if m.better == "higher" {
		worse = -worse
	}
	if worse <= m.bound {
		return verdictOK
	}
	spread := func(s sample) float64 { return (s.Max - s.Min) / math.Abs(s.Value) }
	overlap := a.Min <= b.Max && b.Min <= a.Max
	if overlap && (spread(a) > m.bound || spread(b) > m.bound) {
		return verdictUnresolved
	}
	return verdictWorse
}

// compareFiles prints, per workload and end-to-end metric, both runs' medians
// with their ranges and a verdict, and returns how many are worse. It refuses
// runs that were not made the same way: their numbers are not comparable.
func compareFiles(pathA, pathB string, w io.Writer) (worse int, err error) {
	as, err := readRecords(pathA)
	if err != nil {
		return 0, err
	}
	bs, err := readRecords(pathB)
	if err != nil {
		return 0, err
	}
	if len(as) == 0 || len(as) != len(bs) {
		return 0, fmt.Errorf("%s holds %d runs and %s %d", pathA, len(as), pathB, len(bs))
	}
	spec, _, err := loadSpec()
	if err != nil {
		return 0, err
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		if m.Bound != nil {
			bounds[m.Name] = *m.Bound
		}
	}
	for i, a := range as {
		b := bs[i]
		same := a.Workload == b.Workload && a.Seed == b.Seed && a.Scale == b.Scale &&
			a.Seconds == b.Seconds && a.Trace == b.Trace && a.GoVersion == b.GoVersion &&
			a.GOMAXPROCS == b.GOMAXPROCS && a.SpecHash == b.SpecHash
		if !same || a.Trace {
			return 0, fmt.Errorf("runs %d are not comparable end-to-end runs:\n  %s: %s seed %d scale %s %ds trace=%v %s procs=%d spec %s\n  %s: %s seed %d scale %s %ds trace=%v %s procs=%d spec %s",
				i, pathA, a.Workload, a.Seed, a.Scale, a.Seconds, a.Trace, a.GoVersion, a.GOMAXPROCS, a.SpecHash,
				pathB, b.Workload, b.Seed, b.Scale, b.Seconds, b.Trace, b.GoVersion, b.GOMAXPROCS, b.SpecHash)
		}
		fmt.Fprintf(w, "%s (seed %d)\n", a.Workload, a.Seed)
		if a.SimDigest != b.SimDigest {
			fmt.Fprintf(w, "  sim_digest differs: modelled behaviour changed, whatever the host metrics say\n")
		}
		if a.Failed != b.Failed {
			fmt.Fprintf(w, "  failed scenario runs: %d of %d -> %d of %d\n", a.Failed, a.Attempted, b.Failed, b.Attempted)
			if b.Failed > a.Failed {
				worse++
			}
		}
		for _, m := range endToEnd {
			m.bound = bounds[m.name]
			sa, sb := a.Metrics[m.name], b.Metrics[m.name]
			v := judge(m, sa, sb)
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "  %-26s %12.6g [%.6g .. %.6g] -> %12.6g [%.6g .. %.6g] %-13s %+7.2f%% (bound %g%%, %s is better) %s\n",
				m.name, sa.Value, sa.Min, sa.Max, sb.Value, sb.Min, sb.Max, sa.Unit,
				100*(sb.Value-sa.Value)/math.Abs(sa.Value), 100*m.bound, m.better, v)
		}
	}
	return worse, nil
}
