// Command perfbench is the repository's benchmark: three seeded
// workloads over simulated water (dive-chat, sos-beacon, harbor), each
// a fixed list of operations derived from --seed, with correctness
// checks on every output. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end set; with --trace 1 they are the
// per-layer set (see README.md for the layer-to-metric map).
//
//	go build -o perfbench . && ./perfbench --workload dive-chat --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON object printed as the last line of a run.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadFunc runs one workload at the given size and returns its
// report. A non-nil error means the run could not be carried out at
// all (as opposed to a correctness failure, which the report counts).
type workloadFunc func(cfg runConfig) (*report, error)

// overheadSeedOffset shifts the seed of a traced run's untraced
// comparison pass.
const overheadSeedOffset = 1000003

var workloads = map[string]workloadFunc{
	"dive-chat":  runDiveChat,
	"sos-beacon": runSOSBeacon,
	"harbor":     runHarbor,
}

// workloadNames lists the workloads in a fixed order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs the selected workload and prints
// the summary. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same operation list")
	seconds := fs.Int("seconds", 20, "run size: the operation list is sized to about this many seconds on the reference host")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wf, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *seconds < 1 || *seconds > 600:
		fmt.Fprintf(stderr, "perfbench: --seconds %d outside 1..600\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace %d is not 0 or 1\n", *trace)
		return 2
	}
	cfg := runConfig{seed: *seed, units: *seconds}

	var sum summary
	var err error
	if *trace == 0 {
		sum, err = endToEnd(wf, cfg, stdout)
	} else {
		sum, err = traced(*name, cfg, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// endToEnd runs one untraced pass and summarizes its end-to-end
// metrics. A run that broke a correctness check reports no numbers.
func endToEnd(wf workloadFunc, cfg runConfig, stdout io.Writer) (summary, error) {
	cfg.setupReps = setupReps
	rep, err := wf(cfg)
	if err != nil {
		return summary{}, err
	}
	rep.printOutcome(stdout)
	fmt.Fprintln(stdout, rep.rawLine)
	sum := summary{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	if sum.Correct {
		sum.Metrics = rep.e2e
		sum.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	}
	return sum, nil
}

// traced runs the named workload traced, then untraced on inputs from
// another seed, so that trace.overhead_ratio compares two passes that
// both start with cold program caches (a second pass over the same
// inputs would be served by the equalizer's solve cache). Then it runs
// the kernel ledger and a small traced pass of every other workload,
// so that each traced run prints every per-layer metric.
func traced(name string, cfg runConfig, stdout io.Writer) (summary, error) {
	tcfg := cfg
	tcfg.tr = newTracer()
	rep, err := workloads[name](tcfg)
	if err != nil {
		return summary{}, err
	}
	rep.printOutcome(stdout)
	pcfg := cfg
	pcfg.seed += overheadSeedOffset
	plain, err := workloads[name](pcfg)
	if err != nil {
		return summary{}, err
	}
	if !plain.correct() {
		plain.printOutcome(stdout)
	}
	sum := summary{Attempted: rep.attempted + plain.attempted, Failed: rep.failed + plain.failed}
	layers := rep.layers
	for k, v := range plain.runtime {
		layers[k] = v
	}
	layers["trace.overhead_ratio"] = metric{median(rep.opRefMs) / median(plain.opRefMs), "ratio"}
	layers["host.slowdown"] = metric{plain.ref.slowdown(), "ratio"}

	for _, other := range workloadNames() {
		if other == name {
			continue
		}
		ocfg := runConfig{seed: cfg.seed, units: 1, tr: newTracer()}
		orep, err := workloads[other](ocfg)
		if err != nil {
			return summary{}, fmt.Errorf("side pass %s: %w", other, err)
		}
		sum.Attempted += orep.attempted
		sum.Failed += orep.failed
		for k, v := range orep.layers {
			if _, dup := layers[k]; !dup {
				layers[k] = v
			}
		}
		if !orep.correct() {
			orep.printOutcome(stdout)
		}
	}
	for k, v := range kernelLedger(cfg.seed) {
		layers[k] = v
	}
	sum.Correct = sum.Failed == 0
	if sum.Correct {
		sum.Metrics = layers
	} else {
		sum.Metrics = map[string]metric{}
	}
	return sum, nil
}
