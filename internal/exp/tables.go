package exp

import (
	"fmt"
	"time"

	"aquago/internal/adapt"
	"aquago/internal/channel"
	"aquago/internal/dsp"
	"aquago/internal/fec"
	"aquago/internal/modem"
)

func init() {
	register("tab-preamble", TabPreambleDetection)
	register("tab-runtime", TabRuntime)
}

// TabPreambleDetection reproduces the §3 text numbers: preamble
// detection rate over 180 transmissions per distance (paper: 0.99,
// 1.0, 1.0, 0.96 at 5/10/20/30 m) and the feedback symbol error rate
// (~1 %, with errors confusing adjacent bins).
func TabPreambleDetection(cfg RunConfig) (Report, error) {
	cfg = cfg.withDefaults()
	rep := Report{
		ID:    "tab-preamble",
		Title: "Preamble detection and feedback decoding rates (lake)",
	}
	preambles := 180
	if cfg.Quick {
		preambles = 30
	}
	distances := []float64{5, 10, 20, 30}

	// One job per (distance, preamble); workers share a
	// modem/detector/selector/feedback quartet.
	type preambleState struct {
		m   *modem.Modem
		det *modem.Detector
		sel *adapt.Selector
		fb  *adapt.Feedback
	}
	type outcome struct {
		detected       bool
		fbTried, fbErr bool
	}
	outcomes, err := parallelMapState(cfg.Workers, len(distances)*preambles,
		func() (preambleState, error) {
			m, err := modem.New(modem.DefaultConfig())
			if err != nil {
				return preambleState{}, err
			}
			return preambleState{m: m, det: modem.NewDetector(m),
				sel: adapt.NewSelector(), fb: adapt.NewFeedback(m)}, nil
		},
		func(st preambleState, i int) (outcome, error) {
			m := st.m
			dist := distances[i/preambles]
			tr := i % preambles
			var o outcome
			link, err := channel.NewLink(channel.LinkParams{
				Env: channel.Lake, DistanceM: dist,
				Seed: cfg.Seed + int64(tr)*53 + int64(dist)*7,
			})
			if err != nil {
				return o, err
			}
			rx := link.TransmitAt(m.Preamble(), float64(tr))
			d, ok := st.det.Detect(rx)
			o.detected = ok
			// Feedback measurement mirrors the protocol: Bob selects a
			// band from the received preamble (the paper's feedback
			// always carries *selected* bands, never arbitrary ones)
			// and signals it over the reverse channel.
			if ok && tr%3 == 0 && d.Offset+m.PreambleLen() <= len(rx) {
				est, err := m.EstimateChannel(rx[d.Offset : d.Offset+m.PreambleLen()])
				if err != nil {
					return o, err
				}
				band, found := st.sel.Select(est.SNRdB)
				if !found {
					return o, nil
				}
				rev, err := link.Reverse()
				if err != nil {
					return o, err
				}
				sym, err := st.fb.Encode(band)
				if err != nil {
					return o, err
				}
				rxFB := rev.TransmitAt(sym, float64(tr))
				got, ok := st.fb.Decode(rxFB, m.Config().N(), 8)
				o.fbTried = true
				o.fbErr = !ok || got != band
			}
			return o, nil
		})
	if err != nil {
		return rep, err
	}

	detection := Series{Name: "preamble detection rate", XLabel: "distance m", YLabel: "rate"}
	fbErrors := Series{Name: "feedback decode error rate", XLabel: "distance m", YLabel: "rate"}
	for di, dist := range distances {
		detected := 0
		fbErrs, fbTot := 0, 0
		for tr := 0; tr < preambles; tr++ {
			o := outcomes[di*preambles+tr]
			if o.detected {
				detected++
			}
			if o.fbTried {
				fbTot++
				if o.fbErr {
					fbErrs++
				}
			}
		}
		rate := float64(detected) / float64(preambles)
		detection.X = append(detection.X, dist)
		detection.Y = append(detection.Y, rate)
		fbRate := float64(fbErrs) / float64(fbTot)
		fbErrors.X = append(fbErrors.X, dist)
		fbErrors.Y = append(fbErrors.Y, fbRate)
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%.0f m: detection %.3f (paper 0.96-1.0), feedback errors %.3f (paper ~0.01)",
			dist, rate, fbRate))
	}
	rep.Series = []Series{detection, fbErrors}
	return rep, nil
}

// TabRuntime reproduces the §3 runtime numbers: channel estimation,
// frequency adaptation and feedback decoding each cost 1-2 ms on a
// Galaxy S9, and equalization + Viterbi decode stay under the 20 ms
// symbol duration. Desktop numbers land far below those budgets; the
// point is the ordering and the real-time feasibility margins.
func TabRuntime(cfg RunConfig) (Report, error) {
	cfg = cfg.withDefaults()
	rep := Report{
		ID:    "tab-runtime",
		Title: "Runtime of the real-time code paths (mean over repeated runs)",
	}
	// Deliberately serial: this harness measures wall time per path,
	// and sharing cores with pool workers would corrupt the numbers.
	m, err := modem.New(modem.DefaultConfig())
	if err != nil {
		return rep, err
	}
	iters := 50
	if cfg.Quick {
		iters = 10
	}

	timings := Series{Name: "runtimes", XLabel: "path index", YLabel: "microseconds"}
	timeIt := func(name string, f func()) {
		// Warm up once.
		f()
		//aqualint:wallclock-ok the runtimes table reports real per-call microseconds (the paper's Table 3 reproduction); wall time is the measurement itself
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		us := float64(time.Since(start).Microseconds()) / float64(iters) //aqualint:wallclock-ok wall time is the measurement itself, see start
		rep.Notes = append(rep.Notes, fmt.Sprintf("%-28s %8.0f us", name, us))
		timings.X = append(timings.X, float64(len(timings.X)))
		timings.Y = append(timings.Y, us)
	}

	rxPre := append([]float64(nil), m.Preamble()...)
	timeIt("channel estimation", func() {
		if _, err := m.EstimateChannel(rxPre); err != nil {
			panic(err)
		}
	})

	sel := adapt.NewSelector()
	snr := make([]float64, 60)
	for i := range snr {
		snr[i] = float64(i%25) - 5
	}
	timeIt("band adaptation (Alg. 1)", func() { sel.Select(snr) })
	timeIt("band adaptation (fast)", func() { sel.SelectFast(snr) })

	fb := adapt.NewFeedback(m)
	fbSym, err := fb.Encode(modem.Band{Lo: 7, Hi: 43})
	if err != nil {
		return rep, err
	}
	fbRx := make([]float64, len(fbSym)+1500)
	copy(fbRx[700:], fbSym)
	timeIt("feedback decoding", func() { fb.Decode(fbRx, 960, 8) })

	band := modem.Band{Lo: 5, Hi: 40}
	ref, err := m.TrainingSymbol(band)
	if err != nil {
		return rep, err
	}
	taps := make([]float64, 100)
	taps[0] = 1
	taps[60] = 0.4
	rxTrain := dsp.Convolve(ref, taps)[:len(ref)]
	timeIt("equalizer training (480 taps)", func() {
		if _, err := m.TrainEqualizer(rxTrain, ref, 480, -1); err != nil {
			panic(err)
		}
	})

	codec := fec.NewCodec(fec.Rate23, fec.TailBiting)
	coded := codec.Encode(make([]int, 16))
	timeIt("Viterbi decode (24 bits)", func() {
		if _, err := codec.DecodeHard(coded, 16); err != nil {
			panic(err)
		}
	})

	rep.Notes = append(rep.Notes,
		"paper budgets: estimation/adaptation/feedback 1-2 ms each; equalize+decode < 20 ms/symbol (Galaxy S9)")
	rep.Series = append(rep.Series, timings)
	return rep, nil
}
