package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart anchors setup_s and the span clock. Package initialisation is
// the first thing the program does, so this is the process start to within
// the Go runtime's own start-up.
var processStart = time.Now()

// pass is one run of a workload's whole scenario list.
type pass struct {
	wallS    float64   // sum of the ops' wall times
	opWallMs []float64 // per op
	mallocs  uint64    // runtime.MemStats.Mallocs delta
	bytes    uint64    // runtime.MemStats.TotalAlloc delta
	simS     float64
	results  []opResult
	failures []string // one entry per failed op
	digest   string
	counts   counts
}

// runPass runs ops once, in order, one at a time. An op fails if it returns an
// error or if its simulated statistics differ from those of the same op in
// ref, an earlier pass on the same seed (nil for the first).
func runPass(ops []op, seed uint64, tr *tracer, ref *pass) pass {
	p := pass{results: make([]opResult, len(ops)), opWallMs: make([]float64, len(ops))}
	h := sha256.New()
	// Collect before reading the counters, so that a pass neither pays for
	// its predecessor's garbage nor starts at an arbitrary point of a cycle.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	root := -1
	if tr != nil {
		root = tr.begin("pass", "", -1)
	}
	for i, o := range ops {
		id := -1
		if tr != nil {
			id = tr.begin("scenario", o.name, root)
			tr.cur = id
		}
		start := time.Now()
		res, err := o.run(seed+o.pair, tr)
		wall := time.Since(start)
		if tr != nil {
			tr.end(id)
		}
		p.opWallMs[i] = float64(wall) / 1e6
		p.wallS += wall.Seconds()
		p.results[i] = res
		p.simS += res.simS
		p.counts.add(res.counts)
		fmt.Fprintf(h, "%s\n%s\n", o.name, res.canon)
		switch {
		case err != nil:
			p.failures = append(p.failures, fmt.Sprintf("%s: %v", o.name, err))
		case ref != nil && ref.results[i].canon != res.canon:
			p.failures = append(p.failures, fmt.Sprintf("%s: simulated statistics differ from the first pass", o.name))
		}
		if tr != nil && o.reference != nil && err == nil {
			tr.cur = root
			if err := o.reference(seed+o.pair, tr, &p.counts); err != nil {
				p.failures = append(p.failures, fmt.Sprintf("%s reference: %v", o.name, err))
			}
		}
	}
	if tr != nil {
		tr.end(root)
	}
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs
	p.bytes = after.TotalAlloc - before.TotalAlloc
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p
}

// simulated derives the modelled-design metrics from a pass's results: means
// over the harvesting ops, and over their primaries the geometric mean and
// the maximum of P99 against the no-harvest baseline's P99.
type simulated struct {
	harvested, goodput, p99Mean, p99Max float64
}

func simulatedOf(ops []op, p *pass) simulated {
	var s simulated
	n, primaries, logSum := 0, 0, 0.0
	for i, o := range ops {
		if o.baseline < 0 {
			continue
		}
		n++
		r, base := p.results[i], p.results[o.baseline]
		s.harvested += r.harvested
		s.goodput += r.batchCoreS
		for j, v := range r.p99 {
			if j < len(base.p99) && base.p99[j] > 0 && v > 0 {
				ratio := float64(v) / float64(base.p99[j])
				s.p99Max = math.Max(s.p99Max, ratio)
				logSum += math.Log(ratio)
				primaries++
			}
		}
	}
	s.harvested /= float64(n)
	s.goodput /= float64(n)
	s.p99Mean = math.Exp(logSum / float64(primaries))
	return s
}

// bestWallS is the pass time free of the host's interference: every op's
// fastest run over the passes, summed. The sandbox slows memory-bound code by
// up to a third for seconds at a time while an arithmetic loop beside it keeps
// its pace, so the noise only ever adds; over twelve 20 s windows of one
// workload the median pass time spread 19 % (quartile distance over median),
// the fastest pass 10 %, and this 10 % with half the range.
func bestWallS(passes []pass) float64 {
	total := 0.0
	for i := range passes[0].opWallMs {
		best := math.Inf(1)
		for _, p := range passes {
			best = math.Min(best, p.opWallMs[i])
		}
		total += best / 1e3
	}
	return total
}

// sample is one metric's values over the timed passes. Value is what is
// reported: their median, except where the caller puts a better estimate.
type sample struct {
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values,omitempty"`
}

func newSample(unit string, values ...float64) sample {
	s := sample{Unit: unit, Values: values, Value: median(values)}
	s.Min, s.Max = values[0], values[0]
	for _, v := range values {
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	return s
}

func median(values []float64) float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// percentile returns the p-quantile (nearest rank) of values.
func percentile(values []float64, p float64) float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	i := int(p*float64(len(v))+0.5) - 1
	return v[max(0, min(i, len(v)-1))]
}

// peakRSSMiB reads the process's high-water resident set.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
