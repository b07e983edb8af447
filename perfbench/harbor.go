package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"aquago"
)

// harbor: a network of a few hundred devices in tone-colored pods,
// laid out as the scale harness lays out its harbors (pod centers
// 0.9 r apart, members on a 0.15 r circle, a 2x2 tone coloring), with
// carrier sense bounded to r = 30 m, the default contention mode, and
// one scheduler worker. One generator goroutine drives
// an open loop on the virtual timeline, in two phases whose outcome is
// independent of wall-clock timing:
//
//   - queued phase: Poisson single messages between dive buddies,
//     enqueued up front with NotBeforeS at their arrival times, plus
//     pipelined cross-harbor bulk transfers and one ARQ stream, all
//     contending through the transmit queues and the scheduler;
//   - motion phase: divers drift on constant-velocity tracks and send
//     cross-harbor bulk over relays with SendBulkVia in chunks, one
//     AdvanceMotion epoch and one route lookup per chunk.
//
// An op is one committed exchange (SchedulerStats.Committed).

const (
	harborPodsX, harborPodsY = 6, 5
	harborPodSize            = 10
	harborCSRangeM           = 30.0
	harborSpacing            = 0.9  // pod center spacing, in units of the CS range
	harborRadius             = 0.15 // pod radius, in units of the CS range
	// harborSinglesPerUnit sizes the single-message load; the
	// transfers scale with the run size too (see harborPlan).
	harborSinglesPerUnit = 48
	// harborArrivalHz is the harbor-wide Poisson arrival rate of
	// single messages, per virtual second.
	harborArrivalHz = 1.0
	harborDivers    = 3
	// harborBuddyPairs is how many dive-buddy pairs per pod trade
	// single messages (members 2k and 2k+1). The network caches one
	// channel per talking pair, so this bounds the heap.
	harborBuddyPairs = 2
	// harborWaterSeed fixes the harbor's water — every pair's channel
	// realization and the MAC's random draws — as its geometry is
	// fixed: --seed draws the day's traffic (arrivals, talkers,
	// messages, payload bytes), not a different harbor. With the water
	// drawn per seed, the few dozen talking pairs' channel quality
	// swung latency_s_mean by 20% from seed to seed.
	harborWaterSeed = 20221
	// harborWorkers is the scheduler's worker budget. On the 2-vCPU
	// hosts the benchmark runs on, two workers made harbor's wall
	// times swing by 25-40% between identical runs (neighbours take the
	// second CPU at will), so exchanges run one at a time; admission,
	// queues, routing, relay, ARQ and motion still run in full.
	harborWorkers = 1
)

// harborID maps (pod, color, member) onto the device ID space as the
// scale harness does: 60 IDs per pod, the pod's color selecting which
// 15-tone quarter its members use on the air.
func harborID(pod, color, member int) aquago.DeviceID {
	return aquago.DeviceID(pod*60 + color*15 + member)
}

// harborDiverID gives diver d a tone no pod member uses (members use
// the first harborPodSize tones of each quarter).
func harborDiverID(d int) aquago.DeviceID {
	return aquago.DeviceID((harborPodsX*harborPodsY+d)*60 + harborPodSize + d)
}

type harborNode struct {
	id  aquago.DeviceID
	pos aquago.Position
}

func harborLayout() []harborNode {
	spacing := harborSpacing * harborCSRangeM
	radius := harborRadius * harborCSRangeM
	var out []harborNode
	for py := 0; py < harborPodsY; py++ {
		for px := 0; px < harborPodsX; px++ {
			cx, cy := float64(px)*spacing, float64(py)*spacing
			for m := 0; m < harborPodSize; m++ {
				a := 2 * math.Pi * float64(m) / harborPodSize
				out = append(out, harborNode{
					id:  podMember(px, py, m),
					pos: aquago.Position{X: cx + radius*math.Cos(a), Y: cy + radius*math.Sin(a), Z: 1},
				})
			}
		}
	}
	return out
}

// podMember returns the ID of member m of the pod at lattice (px, py).
func podMember(px, py, m int) aquago.DeviceID {
	return harborID(py*harborPodsX+px, (px%2)*2+py%2, m)
}

type single struct {
	src, dst aquago.DeviceID
	msgs     []uint8
	atS      float64
}

type transfer struct {
	src, dst aquago.DeviceID
	payload  []byte
}

type diverTrip struct {
	diver   aquago.DeviceID
	from    aquago.Position
	vx      float64
	dst     aquago.DeviceID
	payload []byte
}

// harborPlan is the seeded traffic of one run.
type harborPlan struct {
	singles   []single
	pipelined []transfer
	stream    transfer
	trips     []diverTrip
	// motionS is when the divers start drifting and sending: well
	// after the last single's arrival, so the motion phase never
	// overlaps the queued one on the virtual timeline.
	motionS float64
}

// harborDriftS is how long a diver's track drifts before it holds
// station.
const harborDriftS = 300

const harborChunk = 4 // bytes per SendBulkVia chunk in the motion phase

func makeHarborPlan(seed int64, units int) harborPlan {
	rng := rand.New(rand.NewSource(seed*15485863 + 7))
	numMsgs := len(aquago.Codebook())
	var p harborPlan
	t := 0.0
	// Arrivals form one Poisson process; the talkers — every direction
	// of every buddy pair of every pod — take turns in seeded rounds,
	// so each sees its share of the traffic spread over the run and a
	// seed cannot pile the load onto a few pairs or onto the pods the
	// reliable transfers cross.
	talkers := rng.Perm(harborPodsX * harborPodsY * harborBuddyPairs * 2)
	for i := 0; i < harborSinglesPerUnit*units; i++ {
		if i > 0 && i%len(talkers) == 0 {
			rng.Shuffle(len(talkers), func(a, b int) { talkers[a], talkers[b] = talkers[b], talkers[a] })
		}
		t += rng.ExpFloat64() / harborArrivalHz
		k := talkers[i%len(talkers)]
		pod, pair, dir := k/(2*harborBuddyPairs), (k/2)%harborBuddyPairs, k%2
		px, py := pod%harborPodsX, pod/harborPodsX
		a, b := 2*pair+dir, 2*pair+1-dir
		msgs := []uint8{uint8(rng.Intn(numMsgs))}
		if rng.Intn(2) == 0 {
			msgs = append(msgs, uint8(rng.Intn(numMsgs)))
		}
		p.singles = append(p.singles, single{src: podMember(px, py, a), dst: podMember(px, py, b), msgs: msgs, atS: t})
	}
	payload := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	p.motionS = t + 300
	// The reliable transfers sit at fixed places, so that every seed
	// loads the harbor the same way; the seed draws their bytes.
	bulkBytes := 2 * max(1, units/5)
	for i := 0; i < 2; i++ {
		row := 1 + 2*i
		p.pipelined = append(p.pipelined, transfer{
			src:     podMember(0, row, 4),
			dst:     podMember(harborPodsX-1, row, 6),
			payload: payload(bulkBytes),
		})
	}
	// The stream crosses one pod boundary: facing members of two
	// axis-adjacent pods are in earshot.
	p.stream = transfer{src: podMember(2, 2, 0), dst: podMember(3, 2, harborPodSize/2), payload: payload(2 * bulkBytes)}
	spacing := harborSpacing * harborCSRangeM
	for d := 0; d < harborDivers; d++ {
		// Divers start inside the west pods and drift east at 1–2 m/s,
		// the paper's bound on safe diver motion, far enough during
		// their transfer to leave their first relay's earshot.
		row := 2 * d % harborPodsY
		p.trips = append(p.trips, diverTrip{
			diver:   harborDiverID(d),
			from:    aquago.Position{X: 0.3 * spacing, Y: float64(row) * spacing, Z: 2},
			vx:      1 + 0.5*float64(d),
			dst:     podMember(harborPodsX-1, (row+2)%harborPodsY, 7),
			payload: payload(bulkBytes * 3),
		})
	}
	return p
}

// harborObs collects the wall-clock observations of a harbor pass.
type harborObs struct {
	mu       sync.Mutex
	enqueued []time.Time
	doneMs   []float64
	// The exchange probe times each committed exchange against the
	// host reference, sampled right after every commit: with one
	// scheduler worker, the wall time from the end of one commit's
	// sample to the next commit is that exchange, bracketed by two
	// reference samples.
	wall    *wallTimes
	lastEnd time.Time
}

// done records the wall time from single i's enqueue to its completion.
func (o *harborObs) done(i int) {
	now := time.Now()
	o.mu.Lock()
	o.doneMs[i] = ms(now.Sub(o.enqueued[i]))
	o.mu.Unlock()
}

func (o *harborObs) onCommit(aquago.ExchangeEvent) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.wall != nil {
		o.wall.op(now.Sub(o.lastEnd))
		o.lastEnd = time.Now()
	}
}

// startDrive arms the probe's timing; the reference sample it takes
// brackets the first exchange.
func (o *harborObs) startDrive(w *wallTimes) {
	o.mu.Lock()
	defer o.mu.Unlock()
	w.ref.sample()
	o.wall = w
	o.lastEnd = time.Now()
}

// stopDrive disarms the probe's timing.
func (o *harborObs) stopDrive() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.wall = nil
}

func runHarbor(cfg runConfig) (*report, error) {
	rep := newReport("harbor")
	plan := makeHarborPlan(cfg.seed, cfg.units)
	layout := harborLayout()
	obs := &harborObs{}
	var (
		net    *aquago.Network
		joinMs float64
	)
	wall := newWallTimes(mixedRef)
	setupS, setupRefS, err := wall.timeSetup(cfg.reps(), func() { net = nil }, func() error {
		opts := []aquago.NetworkOption{
			aquago.WithNetworkSeed(harborWaterSeed),
			aquago.WithCSRange(harborCSRangeM),
			aquago.WithNetworkWorkers(harborWorkers),
			aquago.WithExchangeProbe(obs.onCommit),
		}
		if cfg.tr != nil {
			opts = append(opts, aquago.WithNetworkTrace(aquago.TraceFunc(cfg.tr.onNetStage)))
		}
		var err error
		if net, err = aquago.NewNetwork(aquago.Bridge, opts...); err != nil {
			return err
		}
		t0 := time.Now()
		for _, nd := range layout {
			if _, err := net.Join(nd.id, nd.pos, aquago.WithNodeClock(0)); err != nil {
				return fmt.Errorf("join %d: %w", nd.id, err)
			}
		}
		for _, trip := range plan.trips {
			to := trip.from
			to.X += trip.vx * harborDriftS
			track := aquago.MotionTrack{Waypoints: []aquago.Waypoint{
				{AtS: plan.motionS, Pos: trip.from},
				{AtS: plan.motionS + harborDriftS, Pos: to},
			}}
			if _, err := net.Join(trip.diver, trip.from, aquago.WithNodeClock(0),
				aquago.WithMotionTrack(track), aquago.WithNodeMotion(aquago.SlowMotion)); err != nil {
				return fmt.Errorf("join diver %d: %w", trip.diver, err)
			}
		}
		joinMs = ms(time.Since(t0)) / float64(len(layout)+len(plan.trips))
		return harborWarmUp(cfg.seed)
	})
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	var (
		delivered, offered    int
		latencies, bitrates   []float64
		busyDrops             int
		xferBits              float64
		xferVirtualS          float64
		bulkAttempts, retries int
		reroutes              int
		routeUs, epochMs      []float64
		streamStats           aquago.StreamStats
	)
	node := func(id aquago.DeviceID) *aquago.Node {
		nd, _ := net.Node(id)
		return nd
	}
	checkBulk := func(what string, res aquago.BulkResult, err error, payload []byte) {
		var rerr *aquago.RelayError
		switch {
		case err == nil:
		case errors.Is(err, aquago.ErrNoRoute),
			errors.As(err, &rerr) && (errors.Is(err, aquago.ErrNoACK) || errors.Is(err, aquago.ErrChannelBusy)):
			if errors.Is(err, aquago.ErrChannelBusy) {
				busyDrops++
			}
		default:
			rep.fail("%s: unexpected error: %v", what, err)
		}
		if len(res.Received) != res.DeliveredBytes || !bytes.Equal(res.Received, payload[:min(res.DeliveredBytes, len(payload))]) {
			rep.fail("%s: received %x, sent %x (%d bytes delivered)", what, res.Received, payload, res.DeliveredBytes)
		}
		pkts := (len(payload) + 1) / 2
		offered += pkts
		delivered += min(res.DeliveredPackets, pkts)
		xferBits += 8 * float64(res.DeliveredBytes)
		xferVirtualS += res.EndS - res.StartS
		bulkAttempts += res.Attempts
		retries += res.Retries
		reroutes += res.Reroutes
		rep.attempted++
		rep.record("%s pkts=%d/%d att=%d retries=%d reroutes=%d hops=%d end=%.6f err=%v",
			what, res.DeliveredPackets, res.Packets, res.Attempts, res.Retries, res.Reroutes, len(res.Path)-1, res.EndS, err != nil)
	}
	route := func(src, dst aquago.DeviceID) ([]aquago.DeviceID, error) {
		t0 := time.Now()
		path, err := net.Route(src, dst)
		routeUs = append(routeUs, us(time.Since(t0)))
		return path, err
	}

	rt := takeRuntime()
	obs.startDrive(wall)

	// Queued phase. Singles first, in arrival order from this goroutine:
	// the dispatch gate turns that enqueue order into a
	// worker-count-invariant execution.
	handles := make([]*aquago.TxHandle, len(plan.singles))
	obs.enqueued = make([]time.Time, len(plan.singles))
	obs.doneMs = make([]float64, len(plan.singles))
	for i, s := range plan.singles {
		obs.mu.Lock()
		obs.enqueued[i] = time.Now()
		obs.mu.Unlock()
		h, err := node(s.src).Enqueue(ctx, aquago.TxJob{
			Dst: s.dst, Msgs: s.msgs, Priority: aquago.TxNormal, NotBeforeS: s.atS,
			OnDone: func(aquago.TxDelivery) { obs.done(i) },
		})
		if err != nil {
			return nil, fmt.Errorf("enqueue single %d: %w", i, err)
		}
		handles[i] = h
	}
	type bulkOut struct {
		res aquago.BulkResult
		err error
	}
	pipeOut := make([]bulkOut, len(plan.pipelined))
	var wg sync.WaitGroup
	for i, tr := range plan.pipelined {
		path, err := route(tr.src, tr.dst)
		if err != nil {
			return nil, fmt.Errorf("route %d -> %d: %w", tr.src, tr.dst, err)
		}
		wg.Add(1)
		go func(i int, path []aquago.DeviceID, payload []byte) {
			defer wg.Done()
			res, err := net.SendBulkViaPipelined(ctx, path, payload)
			pipeOut[i] = bulkOut{res, err}
		}(i, path, tr.payload)
	}
	st, err := node(plan.stream.src).OpenStream(ctx, plan.stream.dst)
	if err != nil {
		return nil, fmt.Errorf("open stream: %w", err)
	}
	if _, err := st.Write(plan.stream.payload); err != nil {
		return nil, fmt.Errorf("stream write: %w", err)
	}
	if err := st.CloseWrite(); err != nil {
		return nil, fmt.Errorf("stream close: %w", err)
	}
	got, rerr := io.ReadAll(st)
	werr := st.Wait(ctx)
	wg.Wait()
	phaseEnd := 0.0
	for i, h := range handles {
		s := plan.singles[i]
		res, err := h.Wait(ctx)
		rep.attempted++
		offered++
		if errors.Is(err, aquago.ErrChannelBusy) {
			busyDrops++
		}
		want := [2]byte{s.msgs[0], aquago.NoMessage}
		if len(s.msgs) == 2 {
			want[1] = s.msgs[1]
		}
		if msg := checkSend(res, err, want); msg != "" {
			rep.fail("single %d: %s", i, msg)
		}
		last := res.Last
		if res.Delivered {
			delivered++
		}
		if last.Delivered {
			latencies = append(latencies, h.EndS()-s.atS)
			bitrates = append(bitrates, last.BitrateBPS)
		}
		phaseEnd = max(phaseEnd, h.EndS())
		rep.record("single %d att=%d del=%t end=%.6f", i, res.Attempts, res.Delivered, h.EndS())
	}
	for i, o := range pipeOut {
		checkBulk(fmt.Sprintf("pipelined %d", i), o.res, o.err, plan.pipelined[i].payload)
		phaseEnd = max(phaseEnd, o.res.EndS)
	}
	streamStats = st.Stats()
	var serr *aquago.StreamError
	switch {
	case rerr != nil && !errors.As(rerr, &serr):
		rep.fail("stream read: %v", rerr)
	case werr != nil && !errors.As(werr, &serr):
		rep.fail("stream wait: %v", werr)
	}
	if len(got) != streamStats.BytesDelivered || !bytes.Equal(got, plan.stream.payload[:min(len(got), len(plan.stream.payload))]) {
		rep.fail("stream: read %x, sent %x (%d delivered)", got, plan.stream.payload, streamStats.BytesDelivered)
	}
	rep.attempted++
	offered += len(plan.stream.payload)
	delivered += min(len(got), len(plan.stream.payload))
	xferBits += 8 * float64(len(got))
	xferVirtualS += streamStats.EndS - streamStats.StartS
	phaseEnd = max(phaseEnd, streamStats.EndS)
	rep.record("stream got=%d seg=%d att=%d retx=%d dup=%d end=%.6f", len(got),
		streamStats.Segments, streamStats.Attempts, streamStats.Retransmits, streamStats.DupSegments, streamStats.EndS)

	// Motion phase: each diver in turn sends its payload in chunks
	// along the path the previous chunk walked, with a motion epoch
	// between chunks; SendBulkVia repairs the route in flight when the
	// diver's next hop has drifted out of earshot.
	for _, trip := range plan.trips {
		diver := node(trip.diver)
		diver.AdvanceClock(max(phaseEnd, plan.motionS))
		var res aquago.BulkResult
		startS := diver.ClockS()
		path, sendErr := route(trip.diver, trip.dst)
		for off := 0; off < len(trip.payload) && sendErr == nil; off += harborChunk {
			chunk := trip.payload[off:min(off+harborChunk, len(trip.payload))]
			out, err := net.SendBulkVia(ctx, path, chunk)
			res.Received = append(res.Received, out.Received...)
			res.DeliveredBytes += out.DeliveredBytes
			res.DeliveredPackets += out.DeliveredPackets
			res.Packets += out.Packets
			res.Attempts += out.Attempts
			res.Retries += out.Retries
			res.Reroutes += out.Reroutes
			if len(out.Path) > 0 {
				path = out.Path
			}
			res.Path = path
			if out.EndS > 0 {
				res.EndS = out.EndS
			}
			sendErr = err
			t0 := time.Now()
			if _, err := net.AdvanceMotion(diver.ClockS()); err != nil {
				return nil, fmt.Errorf("motion epoch: %w", err)
			}
			epochMs = append(epochMs, ms(time.Since(t0)))
		}
		res.StartS = startS
		if res.EndS == 0 {
			res.EndS = startS
		}
		checkBulk(fmt.Sprintf("diver %d", trip.diver), res, sendErr, trip.payload)
		phaseEnd = max(phaseEnd, res.EndS)
	}
	if err := net.Flush(ctx); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	obs.stopDrive()
	sched := net.SchedulerStats()
	rep.addRuntime(rt, sched.Committed)
	rep.record("sched granted=%d committed=%d airtime=%.6f epochs=%d", sched.Granted, sched.Committed, sched.AirtimeS, net.MotionEpochs())

	rep.setWallMetrics(wall, setupS, setupRefS)
	rep.e2e["delivery_ratio"] = metric{float64(delivered) / float64(offered), "ratio"}
	rep.e2e["bitrate_bps_mean"] = metric{mean(bitrates), "bps"}
	rep.e2e["latency_s_mean"] = metric{mean(latencies), "s"}
	rep.e2e["goodput_bps"] = metric{xferBits / xferVirtualS, "bps"}

	if tr := cfg.tr; tr != nil {
		l := rep.layers
		l["aquago.join_ms"] = metric{joinMs, "ms"}
		l["aquago.route_us"] = metric{median(routeUs), "us"}
		l["aquago.motion_epoch_ms"] = metric{median(epochMs), "ms"}
		l["sched.commit_ratio"] = metric{float64(sched.Committed) / float64(max(sched.Granted, 1)), "ratio"}
		l["sched.conflict_edges_per_grant"] = metric{float64(sched.ConflictEdges) / float64(max(sched.Granted, 1)), "count"}
		l["sched.max_concurrent"] = metric{float64(sched.MaxConcurrent), "count"}
		obs.mu.Lock()
		l["txq.done_ms_p50"] = metric{median(obs.doneMs), "ms"}
		obs.mu.Unlock()
		l["relay.retry_ratio"] = metric{float64(retries) / float64(max(bulkAttempts, 1)), "ratio"}
		l["relay.reroutes"] = metric{float64(reroutes), "count"}
		l["stream.retransmit_ratio"] = metric{float64(streamStats.Retransmits) / float64(max(streamStats.Segments, 1)), "ratio"}
		l["stream.dup_segments"] = metric{float64(streamStats.DupSegments), "count"}
		l["mac.busy_drops"] = metric{float64(busyDrops), "count"}
		tr.mu.Lock()
		for _, s := range []aquago.Stage{aquago.StageFeedback, aquago.StageData, aquago.StageACK} {
			l["net."+stageNames[s]+"_ms"] = metric{ms(tr.netStage[s]) / float64(max(tr.netCount[s], 1)), "ms"}
		}
		tr.mu.Unlock()
	}
	return rep, nil
}

// harborWarmUp pays the process-wide lazy set-up (FFT plans, filter
// tables) on a throwaway two-node network.
func harborWarmUp(seed int64) error {
	net, err := aquago.NewNetwork(aquago.Bridge, aquago.WithNetworkSeed(seed))
	if err != nil {
		return err
	}
	a, err := net.Join(0, aquago.Position{Z: 1})
	if err != nil {
		return err
	}
	if _, err := net.Join(1, aquago.Position{X: 5, Z: 1}); err != nil {
		return err
	}
	_, err = a.Send(context.Background(), 1, 0)
	if err != nil && !errors.Is(err, aquago.ErrNoACK) {
		return fmt.Errorf("warm-up send: %w", err)
	}
	return nil
}
