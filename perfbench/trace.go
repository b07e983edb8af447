package main

import (
	"sync"
	"time"

	"aquago"
)

// sampleRate is the modem's audio rate; virtual durations of medium
// calls derive from it.
const sampleRate = 48000.0

// numStages is the number of protocol stages (aquago.StagePreamble
// through aquago.StageACK).
const numStages = int(aquago.StageACK) + 1

var stageNames = [numStages]string{"preamble", "snr", "band", "feedback", "data", "ack"}

// tracer collects the per-layer observations of one traced pass. All
// of it is recorded from the benchmark's side of the public API:
// timers around calls, a Medium wrapper, and the protocol's stage
// events.
type tracer struct {
	// Session-side stage accounting (dive-chat runs one goroutine).
	// mark is the wall time of the last stage boundary; chanSince the
	// channel time spent since mark.
	mark      time.Time
	chanSince time.Duration
	stageSelf [numStages]time.Duration
	// Counts from the stage events.
	exchanges, lostPreamble, lostFeedback, dataErrors int

	// Channel layer: time inside Medium.Forward/Backward and the audio
	// those calls carried.
	chanTime    time.Duration
	chanSamples int

	// Network-side stage accounting, keyed by TxID (the network
	// serializes its trace, but exchanges of different jobs interleave).
	mu       sync.Mutex
	netMark  map[uint64]time.Time
	netStage [numStages]time.Duration
	netCount [numStages]int
}

func newTracer() *tracer { return &tracer{netMark: map[uint64]time.Time{}} }

// beginOp marks the start of one timed operation.
func (t *tracer) beginOp(at time.Time) {
	t.mark = at
	t.chanSince = 0
}

// onStage attributes the wall time since the previous boundary, minus
// the channel time inside it, to the stage that just concluded.
func (t *tracer) onStage(ev aquago.StageEvent) {
	now := time.Now()
	t.stageSelf[ev.Stage] += now.Sub(t.mark) - t.chanSince
	t.mark = now
	t.chanSince = 0
	switch ev.Stage {
	case aquago.StagePreamble:
		t.exchanges++
		if !ev.OK {
			t.lostPreamble++
		}
	case aquago.StageFeedback:
		if !ev.OK {
			t.lostFeedback++
		}
	case aquago.StageData:
		if !ev.OK {
			t.dataErrors++
		}
	}
}

// onNetStage accumulates harbor stage times: wall time between
// consecutive stage events of one job's exchange, channel included.
// An exchange's first event (the preamble) has no known start, so
// only the stages after it are timed.
func (t *tracer) onNetStage(ev aquago.StageEvent) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if ev.Stage != aquago.StagePreamble {
		if m, ok := t.netMark[ev.TxID]; ok {
			t.netStage[ev.Stage] += now.Sub(m)
			t.netCount[ev.Stage]++
		}
	}
	if ev.OK && ev.Stage != aquago.StageACK {
		t.netMark[ev.TxID] = now
	} else {
		delete(t.netMark, ev.TxID)
	}
}

// opMedium wraps the medium of one workload: it records the virtual
// span of the current operation and, in a traced pass, times the
// channel simulation.
type opMedium struct {
	inner aquago.Medium
	tr    *tracer
	// Virtual times of the current operation: start of its first
	// medium call, end of its last Forward call and of its last call.
	startS, fwdEndS, endS float64
	calls                 int
}

func (m *opMedium) beginOp() { m.calls = 0 }

func (m *opMedium) note(tx []float64, atS float64, forward bool) {
	if m.calls == 0 {
		m.startS = atS
	}
	m.calls++
	end := atS + float64(len(tx))/sampleRate
	m.endS = end
	if forward {
		m.fwdEndS = end
	}
}

func (m *opMedium) Forward(tx []float64, atS float64) []float64 {
	m.note(tx, atS, true)
	return m.carry(m.inner.Forward, tx, atS)
}

func (m *opMedium) Backward(tx []float64, atS float64) []float64 {
	m.note(tx, atS, false)
	return m.carry(m.inner.Backward, tx, atS)
}

func (m *opMedium) carry(f func([]float64, float64) []float64, tx []float64, atS float64) []float64 {
	if m.tr == nil {
		return f(tx, atS)
	}
	t0 := time.Now()
	rx := f(tx, atS)
	d := time.Since(t0)
	m.tr.chanTime += d
	m.tr.chanSince += d
	m.tr.chanSamples += len(tx)
	return rx
}

// channelLayers reports the simulated ocean's per-layer metrics over a
// pass whose timed operations took opTotal of wall time and whose
// links took linkMs each to build.
func (t *tracer) channelLayers(r *report, opTotal time.Duration, linkMs []float64) {
	audioS := float64(t.chanSamples) / sampleRate
	r.layers["channel.transmit_ms_per_audio_s"] = metric{ms(t.chanTime) / max(audioS, 1e-9), "ms/s"}
	r.layers["channel.share"] = metric{t.chanTime.Seconds() / max(opTotal.Seconds(), 1e-9), "ratio"}
	r.layers["channel.link_build_ms"] = metric{median(linkMs), "ms"}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
