package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"aquago"
)

// setupReps is how many times an end-to-end run builds its set-up;
// setup_s is the median. The last build is the one the ops run on.
const setupReps = 7

// runConfig sizes and instruments one workload pass.
type runConfig struct {
	// seed derives every input of the pass.
	seed int64
	// units scales the operation list; one unit is about a second of
	// operations on the reference host (2 vCPU, see README.md).
	units int
	// setupReps repeats the set-up (0 means once).
	setupReps int
	// tr, when non-nil, makes the pass a traced one.
	tr *tracer
	// wrap, when non-nil, wraps every medium the pass transmits
	// through (the self-tests inject a corrupting medium with it).
	wrap func(aquago.Medium) aquago.Medium
}

func (c runConfig) reps() int { return max(c.setupReps, 1) }

// report is what one workload pass produced.
type report struct {
	workload  string
	attempted int
	// failed counts operations that broke a correctness check: an
	// unexpected error, or a payload reported delivered whose bytes
	// differ from what was sent. Undelivered operations (no ACK, busy
	// channel, beacon sync miss) are legitimate outcomes of simulated
	// water; they lower delivery_ratio instead.
	failed   int
	failures []string
	// outcome accumulates the deterministic outcome record; its hash
	// is the run's digest.
	outcome strings.Builder
	// opMs and opRefMs hold the wall time of every timed operation,
	// raw and in reference-host time.
	opMs, opRefMs []float64
	// e2e, layers and runtime are the end-to-end, per-layer and Go
	// runtime metrics of the pass.
	e2e, layers, runtime map[string]metric
	// ref is the host reference timed beside the operations; rawLine
	// reports the wall-time metrics before scaling to reference-host
	// time.
	ref     *hostRef
	rawLine string
}

func newReport(workload string) *report {
	return &report{workload: workload, e2e: map[string]metric{}, layers: map[string]metric{}, runtime: map[string]metric{}}
}

// fail records one correctness failure.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return r.failed == 0 }

// record appends one line to the deterministic outcome record.
func (r *report) record(format string, args ...any) {
	fmt.Fprintf(&r.outcome, format, args...)
	r.outcome.WriteByte('\n')
}

// digest hashes the outcome record: runs of one commit and seed must
// print the same digest.
func (r *report) digest() string {
	h := sha256.Sum256([]byte(r.outcome.String()))
	return hex.EncodeToString(h[:8])
}

// printOutcome prints the digest line and any correctness failures.
func (r *report) printOutcome(w io.Writer) {
	fmt.Fprintf(w, "%s: %d ops, %d failed checks, outcome digest %s\n", r.workload, r.attempted, r.failed, r.digest())
	for _, f := range r.failures {
		fmt.Fprintf(w, "%s: FAILED CHECK: %s\n", r.workload, f)
	}
}

// runtimeSnapshot captures the Go runtime counters around a timed
// phase.
type runtimeSnapshot struct {
	mallocs, totalAlloc uint64
}

func takeRuntime() runtimeSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSnapshot{mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc}
}

// addRuntime reports allocation and GC cost of the phase since s over
// ops operations. go.gc_cpu_share is the runtime's own estimate of the
// CPU share spent in GC over the process so far.
func (r *report) addRuntime(s runtimeSnapshot, ops int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := float64(max(ops, 1))
	r.runtime["go.allocs_per_op"] = metric{float64(ms.Mallocs-s.mallocs) / n, "count"}
	r.runtime["go.alloc_mb_per_op"] = metric{float64(ms.TotalAlloc-s.totalAlloc) / 1e6 / n, "MB"}
	r.runtime["go.gc_cpu_share"] = metric{ms.GCCPUFraction, "ratio"}
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	// Not Linux: the runtime's view of memory obtained from the OS.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics); NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// wallTimes collects the wall-clock measurements of a pass, each both
// raw and in reference-host time (see hostref.go).
type wallTimes struct {
	ref *hostRef
	// opMs and opRefMs hold one entry per timed operation.
	opMs, opRefMs []float64
	// setup and setupRef total the set-up work done outside timeSetup
	// (per-operation link builds).
	setup, setupRef time.Duration
}

func newWallTimes(kind refKind) *wallTimes {
	w := &wallTimes{ref: newHostRef(kind)}
	w.ref.sample()
	return w
}

// op records an operation that took d, measured since the previous
// reference sample.
func (w *wallTimes) op(d time.Duration) {
	w.ref.sample()
	w.opMs = append(w.opMs, ms(d))
	w.opRefMs = append(w.opRefMs, ms(w.ref.scale(d)))
}

// setupWork records set-up work that took d, measured since the
// previous reference sample.
func (w *wallTimes) setupWork(d time.Duration) {
	w.ref.sample()
	w.setup += d
	w.setupRef += w.ref.scale(d)
}

// timeSetup runs build reps times and returns the median wall time in
// seconds, raw and in reference-host time; the caller keeps what the
// last build produced. Before every rep but the first, release drops
// the previous build and the heap is collected, untimed, so each rep
// starts from the same heap.
func (w *wallTimes) timeSetup(reps int, release func(), build func() error) (raw, ref float64, err error) {
	var secs, refSecs []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			release()
			runtime.GC()
			w.ref.sample()
		}
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, 0, err
		}
		d := time.Since(t0)
		w.ref.sample()
		secs = append(secs, d.Seconds())
		refSecs = append(refSecs, w.ref.scale(d).Seconds())
	}
	return median(secs), median(refSecs), nil
}

// setWallMetrics fills the wall-time end-to-end metrics from
// reference-host times and keeps the raw ones for the run's log line.
// setupS and setupRefS are the timeSetup medians.
func (r *report) setWallMetrics(w *wallTimes, setupS, setupRefS float64) {
	r.e2e["setup_s"] = metric{setupRefS + w.setupRef.Seconds(), "s"}
	r.e2e["op_ms_p50"] = metric{median(w.opRefMs), "ms"}
	r.e2e["op_ms_p90"] = metric{quantile(w.opRefMs, 0.9), "ms"}
	r.e2e["ops_per_s"] = metric{1e3 / mean(w.opRefMs), "1/s"}
	r.opMs, r.opRefMs = w.opMs, w.opRefMs
	r.ref = w.ref
	r.rawLine = fmt.Sprintf("%s: raw setup_s=%.6g op_ms_p50=%.6g op_ms_p90=%.6g ops_per_s=%.6g, host slowdown %.4f",
		r.workload, setupS+w.setup.Seconds(), median(w.opMs), quantile(w.opMs, 0.9), 1e3/mean(w.opMs), w.ref.slowdown())
}
