package main

import (
	"math"
	"math/cmplx"
	"time"
)

// The host reference: fixed, allocation-free compute kernels that
// belong to the benchmark, not to the program, timed right before and
// right after every timed operation. The hosts this benchmark runs on
// change speed by 10-30% from minute to minute, far more than the
// changes it has to detect, and the kernels slow down with them. Each
// operation's wall time is therefore reported in reference-host time:
// divided by the mean slowdown of the kernel samples around it, a
// sample's slowdown being its time over the kernel's nominal time on
// the reference host. A change to the program cannot move the kernels,
// so the scaling cancels host drift and keeps program speed-ups.
//
// Host drift does not slow every kind of code alike, so the kernels
// have the shapes of the workload's hot path: an FFT (throughput-bound
// butterflies) and a second-order recurrence (latency-bound, like
// Goertzel or a Viterbi add-compare-select chain). The OFDM workloads
// use both, the beacon the recurrence alone; see README.md for what
// each choice did to the spread.

// refKind selects the reference kernels.
type refKind int

const (
	// mixedRef averages the FFT and recurrence kernels' slowdowns.
	mixedRef refKind = iota
	recurrenceRef
)

const (
	hostRefN = 2048
	// Nominal kernel times on the reference host (a 2-vCPU VM, see
	// README.md).
	fftRefNominalMs        = 0.46
	recurrenceRefNominalMs = 0.099
)

type hostRef struct {
	kind    refKind
	buf, tw []complex128
	// samples holds each sample's slowdown against the reference host.
	samples []float64
	// spent is the wall time the kernels themselves have taken.
	spent time.Duration
	sink  float64
}

func newHostRef(kind refKind) *hostRef {
	h := &hostRef{kind: kind}
	if kind == mixedRef {
		h.buf, h.tw = make([]complex128, hostRefN), make([]complex128, hostRefN/2)
		for i := range h.tw {
			h.tw[i] = cmplx.Rect(1, -2*math.Pi*float64(i)/hostRefN)
		}
	}
	return h
}

// sample records the host's current slowdown. Each kernel runs once
// untimed, to bring its data back into cache, then once timed, so the
// sample does not depend on what ran before.
func (h *hostRef) sample() {
	t0 := time.Now()
	slow := timeKernel(h.recurrence) / recurrenceRefNominalMs
	if h.kind == mixedRef {
		slow = (slow + timeKernel(h.fftKernel)/fftRefNominalMs) / 2
	}
	h.spent += time.Since(t0)
	h.samples = append(h.samples, slow)
}

func timeKernel(k func()) float64 {
	k()
	t0 := time.Now()
	k()
	return ms(time.Since(t0))
}

// scale converts a wall time measured between the last two samples
// into reference-host time.
func (h *hostRef) scale(d time.Duration) time.Duration {
	n := len(h.samples)
	if n < 2 {
		panic("perfbench: host reference scaled before two samples")
	}
	return time.Duration(float64(d) * 2 / (h.samples[n-2] + h.samples[n-1]))
}

// slowdown is the median sample.
func (h *hostRef) slowdown() float64 { return median(h.samples) }

func (h *hostRef) recurrence() {
	c := 2 * math.Cos(2*math.Pi/16)
	for r := 0; r < 12; r++ {
		var s1, s2 float64
		for i := 0; i < 2400; i++ {
			s1, s2 = float64(i%7)-3+c*s1-s2, s1
		}
		h.sink += s1*s1 + s2*s2
	}
}

func (h *hostRef) fftKernel() {
	for r := 0; r < 6; r++ {
		for i := range h.buf {
			h.buf[i] = complex(float64(i%17)-8, float64(i%5))
		}
		fft(h.buf, h.tw)
		h.sink += real(h.buf[r])
	}
}

// fft is an in-place iterative radix-2 FFT; tw holds the len(x)/2
// twiddle factors.
func fft(x, tw []complex128) {
	n := len(x)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half, step := size/2, n/size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				t := tw[k*step] * x[start+k+half]
				x[start+k+half] = x[start+k] - t
				x[start+k] += t
			}
		}
	}
}
