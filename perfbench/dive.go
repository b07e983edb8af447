package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"aquago"
	"aquago/internal/modem"
)

// dive-chat: two devices exchange hand-signal messages with
// Session.Send, back to back from one goroutine (a closed loop with
// one client). Each conversation is one SimulatedWater link that
// carries diveMsgsPerConv messages, alternating direction, so the
// channel evolves between them. The conversations span the paper's
// evaluation grid: six sites, 5–30 m, the four devices, static, slow
// and fast motion.
//
// A conversation's link is built just before its first message and
// dropped after its last, so that many conversations — and with them
// many independent channel realizations — fit in a small heap. Link
// builds are set-up work: their time counts in setup_s, never in op
// time.

const (
	diveMsgsPerConv = 2
	// diveConvsPerUnit sizes the op list: one unit is about a second
	// of operations on the reference host.
	diveConvsPerUnit = 16
)

var diveMotions = []aquago.Motion{aquago.Static, aquago.SlowMotion, aquago.FastMotion}

// conversation is one link and the messages it carries.
type conversation struct {
	env      aquago.Environment
	distM    float64
	tx, rx   aquago.Device
	motion   int
	linkSeed int64
	msgs     [][2]uint8
}

// diveConversations derives the conversation list from the seed. The
// grid coordinates (site, motion, distance, devices) are assigned by
// position in the list, so every seed covers the grid the same way;
// the seed draws each link's channel realization and the messages.
func diveConversations(seed int64, n int) []conversation {
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	envs := []aquago.Environment{aquago.Bridge, aquago.Park, aquago.Lake, aquago.Beach, aquago.Museum, aquago.Bay}
	devs := []aquago.Device{aquago.GalaxyS9, aquago.Pixel4, aquago.OnePlus8Pro, aquago.GalaxyWatch4}
	numMsgs := len(aquago.Codebook())
	convs := make([]conversation, n)
	for i := range convs {
		env := envs[i%len(envs)]
		k := i / len(envs)                       // conversations of this site so far
		dists := int(min(30, env.MaxRangeM) / 5) // 5, 10, ..., up to 30 m
		dev := k / len(diveMotions)
		c := conversation{
			env:      env,
			distM:    float64(5 * (1 + (k+dev)%dists)),
			tx:       devs[dev%len(devs)],
			rx:       devs[(dev+1+k%2)%len(devs)],
			motion:   k % len(diveMotions),
			linkSeed: rng.Int63n(1 << 40),
		}
		for m := 0; m < diveMsgsPerConv; m++ {
			first := uint8(rng.Intn(numMsgs))
			second := uint8(aquago.NoMessage)
			if rng.Intn(2) == 0 {
				second = uint8(rng.Intn(numMsgs))
			}
			c.msgs = append(c.msgs, [2]uint8{first, second})
		}
		convs[i] = c
	}
	return convs
}

// link builds the conversation's water.
func (c *conversation) link(cfg runConfig) (*opMedium, error) {
	med, err := aquago.SimulatedWater(c.env,
		aquago.AtDistance(c.distM),
		aquago.WithDevices(c.tx, c.rx),
		aquago.WithMotion(diveMotions[c.motion]),
		aquago.WithSeed(c.linkSeed))
	if err != nil {
		return nil, fmt.Errorf("link %s %g m: %w", c.env.Name, c.distM, err)
	}
	if cfg.wrap != nil {
		med = cfg.wrap(med)
	}
	return &opMedium{inner: med, tr: cfg.tr}, nil
}

func runDiveChat(cfg runConfig) (*report, error) {
	rep := newReport("dive-chat")
	convs := diveConversations(cfg.seed, max(diveConvsPerUnit*cfg.units, 2))
	idRng := rand.New(rand.NewSource(cfg.seed*104729 + 3))
	idA := aquago.DeviceID(idRng.Intn(60))
	idB := aquago.DeviceID((int(idA) + 1 + idRng.Intn(59)) % 60)

	var alice, bob *aquago.Session
	wall := newWallTimes(mixedRef)
	sessionS, sessionRefS, err := wall.timeSetup(cfg.reps(), func() { alice, bob = nil, nil }, func() error {
		var err error
		if alice, err = aquago.Dial(idA); err != nil {
			return err
		}
		if bob, err = aquago.Dial(idB); err != nil {
			return err
		}
		// Lazy first-use work (FFT plans, filter tables) belongs to
		// set-up: one untimed exchange on a throwaway link.
		warm, err := aquago.SimulatedWater(aquago.Bridge, aquago.AtDistance(5), aquago.WithSeed(cfg.seed))
		if err != nil {
			return err
		}
		_, err = alice.Send(warm, idB, 0, aquago.NoMessage)
		if err != nil && !errors.Is(err, aquago.ErrNoACK) {
			return fmt.Errorf("warm-up send: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if tr := cfg.tr; tr != nil {
		alice.SetTrace(aquago.TraceFunc(tr.onStage))
		bob.SetTrace(aquago.TraceFunc(tr.onStage))
	}

	var (
		delivered           int
		bitrates, latencies []float64
		deliveredS          float64 // virtual time of the delivered ops
		opTotal             time.Duration
		linkMs              []float64
	)
	hits0, misses0 := modem.EqualizerCacheStats()
	rt := takeRuntime()
	for ci := range convs {
		c := &convs[ci]
		tl := time.Now()
		med, err := c.link(cfg)
		if err != nil {
			return nil, err
		}
		d := time.Since(tl)
		wall.setupWork(d)
		linkMs = append(linkMs, ms(d))
		back := aquago.SwapDirection(med)
		for k, m := range c.msgs {
			sender, dst, dir := alice, idB, aquago.Medium(med)
			if k%2 == 1 {
				sender, dst, dir = bob, idA, back
			}
			med.beginOp()
			t0 := time.Now()
			if cfg.tr != nil {
				cfg.tr.beginOp(t0)
			}
			res, err := sender.Send(dir, dst, m[0], m[1])
			d := time.Since(t0)
			opTotal += d
			wall.op(d)
			rep.attempted++

			if msg := checkSend(res, err, [2]byte{m[0], m[1]}); msg != "" {
				rep.fail("conv %d msg %d: %s", ci, k, msg)
			}
			last := res.Last
			if res.Delivered {
				delivered++
				deliveredS += med.endS - med.startS
			}
			if last.Delivered {
				bitrates = append(bitrates, last.BitrateBPS)
				latencies = append(latencies, med.fwdEndS-med.startS)
			}
			rep.record("%d.%d att=%d del=%t ack=%t band=%d-%d fb=%t dec=%x bits=%d",
				ci, k, res.Attempts, res.Delivered, res.Acknowledged,
				last.Band.Lo, last.Band.Hi, last.FeedbackDecoded, last.Decoded, last.InfoErrors)
		}
	}
	rep.addRuntime(rt, rep.attempted)

	n := float64(rep.attempted)
	rep.setWallMetrics(wall, sessionS, sessionRefS)
	rep.e2e["delivery_ratio"] = metric{float64(delivered) / n, "ratio"}
	rep.e2e["bitrate_bps_mean"] = metric{mean(bitrates), "bps"}
	rep.e2e["latency_s_mean"] = metric{mean(latencies), "s"}
	rep.e2e["goodput_bps"] = metric{16 * float64(delivered) / deliveredS, "bps"}

	if tr := cfg.tr; tr != nil {
		ex := float64(max(tr.exchanges, 1))
		var accounted time.Duration
		for s, name := range stageNames {
			prefix := "phy."
			if s == int(aquago.StageBand) || s == int(aquago.StageFeedback) {
				prefix = "adapt."
			}
			rep.layers[prefix+name+"_ms"] = metric{ms(tr.stageSelf[s]) / ex, "ms"}
			accounted += tr.stageSelf[s]
		}
		accounted += tr.chanTime
		rep.layers["phy.exchanges_per_op"] = metric{float64(tr.exchanges) / n, "count"}
		rep.layers["phy.lost_preamble"] = metric{float64(tr.lostPreamble), "count"}
		rep.layers["phy.lost_feedback"] = metric{float64(tr.lostFeedback), "count"}
		rep.layers["phy.data_errors"] = metric{float64(tr.dataErrors), "count"}
		rep.layers["phy.useful_exchange_ratio"] = metric{float64(delivered) / ex, "ratio"}
		rep.layers["trace.op_ms_p50"] = metric{median(rep.opRefMs), "ms"}
		rep.layers["trace.accounted_ratio"] = metric{accounted.Seconds() / opTotal.Seconds(), "ratio"}
		hits, misses := modem.EqualizerCacheStats()
		rep.layers["modem.eq_cache_hit_ratio"] = metric{float64(hits-hits0) / float64(max(hits-hits0+misses-misses0, 1)), "ratio"}
		tr.channelLayers(rep, opTotal, linkMs)
	}
	return rep, nil
}

// checkSend checks one message send against the payload sent. It
// returns what broke, or "" when the send is consistent.
func checkSend(res aquago.SendResult, err error, want [2]byte) string {
	last := res.Last
	switch {
	case err != nil && !errors.Is(err, aquago.ErrNoACK) && !errors.Is(err, aquago.ErrChannelBusy):
		return fmt.Sprintf("unexpected error: %v", err)
	case last.Delivered && last.Decoded != want:
		return fmt.Sprintf("delivered %x, sent %x", last.Decoded, want)
	case last.Delivered && !res.Delivered:
		return "attempt delivered but send reports undelivered"
	}
	return ""
}
