package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"aquago"
)

// sos-beacon: the long-range mode. One client sends 10 or 20 bps FSK
// SoS beacons 40–110 m across the beach (the only site with that much
// water) and decodes each with Beacon.Decode, back to back. Each
// beacon reaches the receiver at an unknown offset, so the decoder has
// to search for it. 5 bps is left out: its fine sync search costs
// about 1.5 s per beacon.

const (
	// beaconsPerUnit sizes the op list: about one unit of wall time
	// per beaconsPerUnit beacons on the reference host.
	beaconsPerUnit = 5
	beaconIDBits   = 6
)

// beaconOp is one beacon and the link it crosses.
type beaconOp struct {
	rate     int
	distM    float64
	linkSeed int64
	id       int
	padN     int // silence before the beacon: its unknown arrival offset
	atS      float64
}

// beaconOps derives the op list from the seed. Every third beacon runs
// at 10 bps, the others at 20 bps, so each seed has the same rate mix;
// the seed draws distance, channel, ID and arrival offset.
func beaconOps(seed int64, n int) []beaconOp {
	rng := rand.New(rand.NewSource(seed*6007 + 5))
	ops := make([]beaconOp, n)
	for i := range ops {
		rate := 20
		if i%3 == 0 {
			rate = 10
		}
		ops[i] = beaconOp{
			rate:     rate,
			distM:    40 + 70*rng.Float64(),
			linkSeed: rng.Int63n(1 << 40),
			id:       rng.Intn(1 << beaconIDBits),
			padN:     rng.Intn(int(sampleRate) / rate),
			atS:      60 * rng.Float64(),
		}
	}
	return ops
}

func runSOSBeacon(cfg runConfig) (*report, error) {
	rep := newReport("sos-beacon")
	ops := beaconOps(cfg.seed, max(beaconsPerUnit*cfg.units, 3))
	beacons := map[int]*aquago.Beacon{}
	wall := newWallTimes(recurrenceRef)
	fixedS, fixedRefS, err := wall.timeSetup(cfg.reps(), func() { clear(beacons) }, func() error {
		for _, r := range []int{10, 20} {
			b, err := aquago.NewBeacon(r)
			if err != nil {
				return err
			}
			beacons[r] = b
		}
		// Lazy first-use work (FFT plans of the channel's convolution):
		// one untimed beacon.
		warm, err := aquago.SimulatedWater(aquago.Beach, aquago.AtDistance(40), aquago.WithSeed(cfg.seed))
		if err != nil {
			return err
		}
		wave, err := beacons[20].EncodeID(1)
		if err != nil {
			return err
		}
		beacons[20].Decode(warm.Forward(wave, 0), beaconIDBits)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Each beacon's link and waveform are built just before it is sent
	// (set-up work, counted in setup_s), so the heap holds one link at
	// a time.
	prepare := func(op *beaconOp) (*opMedium, []float64, error) {
		med, err := aquago.SimulatedWater(aquago.Beach, aquago.AtDistance(op.distM), aquago.WithSeed(op.linkSeed))
		if err != nil {
			return nil, nil, fmt.Errorf("link %g m: %w", op.distM, err)
		}
		if cfg.wrap != nil {
			med = cfg.wrap(med)
		}
		b := beacons[op.rate]
		wave, err := b.EncodeID(aquago.DeviceID(op.id))
		if err != nil {
			return nil, nil, err
		}
		tx := make([]float64, op.padN+len(wave)+b.SymbolSamples()/2)
		copy(tx[op.padN:], wave)
		return &opMedium{inner: med, tr: cfg.tr}, tx, nil
	}

	var (
		delivered, deliveredBits int
		bitrates, latencies      []float64
		deliveredS               float64 // virtual time of the delivered beacons
		opTotal, syncT, demodT   time.Duration
		linkMs                   []float64
		misses                   int
	)
	rt := takeRuntime()
	for i := range ops {
		op := &ops[i]
		b := beacons[op.rate]
		n := b.SymbolSamples()
		// The beacon heap is a few MB next to a runtime of ~10, so when
		// the collector happened to run moved peak_rss_mb by 17% from
		// run to run; collecting before every beacon (untimed) pins it.
		runtime.GC()
		tl := time.Now()
		med, tx, err := prepare(op)
		if err != nil {
			return nil, err
		}
		d := time.Since(tl)
		wall.setupWork(d)
		linkMs = append(linkMs, ms(d))
		t0 := time.Now()
		rx := med.Forward(tx, op.atS)
		tDec := time.Now()
		bits, off, ok := b.Decode(rx, beaconIDBits)
		t1 := time.Now()
		d = t1.Sub(t0)
		opTotal += d
		wall.op(d)
		rep.attempted++

		// Decode demodulates at the offset it found, exactly as
		// DecodeAligned does there: the two must agree bit for bit.
		id := -1
		if ok {
			ta := time.Now()
			again, err := b.DecodeAligned(rx, off, beaconIDBits)
			td := time.Since(ta)
			switch {
			case err != nil:
				rep.fail("beacon %d: DecodeAligned at found offset %d: %v", i, off, err)
			case len(bits) != beaconIDBits || !equalBits(bits, again):
				rep.fail("beacon %d: Decode bits %v differ from DecodeAligned %v at offset %d", i, bits, again, off)
			default:
				id = 0
				for _, v := range bits {
					id = id<<1 | v
				}
			}
			demodT += td
			syncT += t1.Sub(tDec) - td
		} else {
			misses++
		}
		total := (8 + beaconIDBits) * n
		if id == op.id {
			delivered++
			deliveredBits += beaconIDBits
			deliveredS += float64(total) / sampleRate
			bitrates = append(bitrates, float64(op.rate))
			latencies = append(latencies, float64(off+total-op.padN)/sampleRate)
		}
		rep.record("%d rate=%d ok=%t off=%d id=%d want=%d", i, op.rate, ok, off, id, op.id)
	}
	rep.addRuntime(rt, rep.attempted)

	nOps := float64(rep.attempted)
	rep.setWallMetrics(wall, fixedS, fixedRefS)
	rep.e2e["delivery_ratio"] = metric{float64(delivered) / nOps, "ratio"}
	rep.e2e["bitrate_bps_mean"] = metric{mean(bitrates), "bps"}
	rep.e2e["latency_s_mean"] = metric{mean(latencies), "s"}
	rep.e2e["goodput_bps"] = metric{float64(deliveredBits) / deliveredS, "bps"}

	if tr := cfg.tr; tr != nil {
		found := float64(max(rep.attempted-misses, 1))
		rep.layers["phy.beacon_sync_ms"] = metric{ms(syncT) / found, "ms"}
		rep.layers["phy.beacon_demod_ms"] = metric{ms(demodT) / found, "ms"}
		rep.layers["phy.beacon_sync_miss"] = metric{float64(misses), "count"}
		tr.channelLayers(rep, opTotal, linkMs)
	}
	return rep, nil
}

func equalBits(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
