// Command aquanet simulates an underwater network of AquaApp devices
// contending for the acoustic channel. Its default mode reproduces the
// paper's MAC evaluation (Fig 19): collision fractions with and
// without carrier sense for configurable transmitter counts. The -load
// mode goes beyond the paper: it drives a live Network with Poisson
// offered load per node and reports delivered goodput, latency
// percentiles, collision fraction and scheduler counters for one
// offered-load point (the sweep lives in `aquabench -macload`);
// -async drives the same load fire-and-forget through the per-node
// transmit queues instead of one blocking goroutine per message. The
// -relay mode routes a bulk payload down a multi-hop relay line —
// store-and-forward over the carrier-sense MAC, per-packet band
// re-adaptation, per-hop progress — and reports end-to-end goodput
// and latency (the sweep lives in `aquabench -multihop`); -pipelined
// runs the transfer over per-relay transmit queues so packets overlap
// on non-interfering hops, and -persist/-adaptive-backoff pick the
// p-persistent slotted MAC and airtime-scaled backoff quanta. The -scale
// mode builds a harbor-scale deployment — a pod lattice sized by
// -pods-x/-pods-y/-podsize, spatially reusing the 60-tone space under
// a bounded carrier-sense range — and relays cross-harbor messages,
// reporting delivery counts and the build-out/routing/driving wall
// costs (the sweep lives in `aquabench -scale`). The -stream mode
// opens a reliable selective-repeat ARQ stream over a single link and
// reports delivery, retransmission and goodput accounting; -image
// sends an AquaScope-style progressive image (CRC-8 per block) over a
// stream, a relay line (-hops) or concurrent streams (-streams) and
// reports image goodput and time-to-first-usable-preview (the sweeps
// live in `aquabench -image`). The -mobility mode drifts a diver
// along a fixed relay line while bulk-transferring in chunks — one
// position epoch per chunk — and reports goodput, motion epochs and
// route repairs (the sweep lives in `aquabench -mobility`). All modes
// run entirely on the public Network API.
//
// Usage:
//
//	aquanet [-tx 3] [-packets 120] [-runs 5] [-seed 1] [-env bridge]
//	        [-csrange 0] [-preamble-aware]
//	aquanet -load [-nodes 8] [-rate 0.05] [-duration 120]
//	        [-mode envelope|waveform] [-no-cs] [-workers 0]
//	        [-async] [-queue 64]
//	        [-seed 1] [-env bridge] [-csrange 0] [-preamble-aware]
//	aquanet -relay [-hops 3] [-spacing 25] [-bulk 32] [-policy minhop]
//	        [-pipelined] [-queue 64] [-persist 0] [-adaptive-backoff]
//	        [-mode envelope|waveform] [-seed 1] [-env bridge] [-csrange 0]
//	aquanet -scale [-pods-x 5] [-pods-y 5] [-podsize 10] [-msgs 8]
//	        [-workers 0] [-seed 1] [-env bridge] [-csrange 30]
//	aquanet -stream [-range 25] [-bytes 32] [-window 0] [-stream-retries 4]
//	        [-rto 0] [-mode envelope|waveform] [-workers 0] [-seed 1] [-env bridge]
//	aquanet -image [-blocks 16] [-blocksize 7] [-preview 0] [-hops N]
//	        [-streams 1] [-range 25] [-window 0] [-stream-retries 4] [-rto 0]
//	        [-mode envelope|waveform] [-workers 0] [-seed 1] [-env bridge]
//	aquanet -mobility [-hops 3] [-spacing 25] [-bulk 32] [-chunk 8]
//	        [-drift 1] [-pipelined] [-queue 64] [-workers 0] [-seed 1]
//	        [-env bridge] [-csrange 0]
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"

	"aquago"

	"aquago/internal/channel"
	"aquago/internal/exp"
)

// maxSeed bounds -seed so per-run derived seeds (seed + run*7919)
// cannot overflow, keeping output reproducible across platforms.
const maxSeed = math.MaxInt64 / 2

// validateFlags rejects flag combinations that would silently produce
// garbage output: non-finite or negative carrier-sense ranges,
// nonsensical node/packet/run counts (the network fits at most 59
// transmitters beside the receiver), and seeds outside [0, maxSeed].
func validateFlags(nTx, packets, runs int, seed int64, csRange float64) error {
	switch {
	case nTx < 1:
		return errors.New("need at least one transmitter (-tx >= 1)")
	case nTx > 59:
		return fmt.Errorf("-tx %d exceeds the 59 transmitters a 60-device network can hold", nTx)
	case packets < 1:
		return fmt.Errorf("-packets %d: need at least one packet per transmitter", packets)
	case runs < 1:
		return fmt.Errorf("-runs %d: need at least one run", runs)
	}
	return validateCommonFlags(seed, csRange)
}

// validateCommonFlags covers the flags both modes share.
func validateCommonFlags(seed int64, csRange float64) error {
	switch {
	case math.IsNaN(csRange) || math.IsInf(csRange, 0):
		return fmt.Errorf("-csrange %v is not a finite distance", csRange)
	case csRange < 0:
		return fmt.Errorf("-csrange %g: a carrier-sense range cannot be negative (use 0 for unlimited)", csRange)
	case seed < 0 || seed > maxSeed:
		return fmt.Errorf("-seed %d out of range [0, %d]", seed, int64(maxSeed))
	}
	return nil
}

// parseMode maps the -mode flag onto a contention mode.
func parseMode(mode string) (aquago.ContentionMode, error) {
	switch mode {
	case "envelope":
		return aquago.EnvelopeContention, nil
	case "waveform":
		return aquago.WaveformContention, nil
	default:
		return 0, fmt.Errorf("-mode %q: pick envelope or waveform", mode)
	}
}

// buildLoadPoint turns -load flags into a validated measurement point.
// Node-count, rate and duration abuse (over 60 nodes, negative or NaN
// rates, bad durations) is rejected by the point's own Validate, so
// the CLI and the harness cannot drift apart on what is runnable.
func buildLoadPoint(nodes int, rate, duration float64, mode string, noCS, preambleAware bool,
	workers int, async bool, queueCap int, seed int64, csRange float64,
	env aquago.Environment) (exp.MacLoadPoint, error) {
	if err := validateCommonFlags(seed, csRange); err != nil {
		return exp.MacLoadPoint{}, err
	}
	m, err := parseMode(mode)
	if err != nil {
		return exp.MacLoadPoint{}, err
	}
	if workers < 0 {
		return exp.MacLoadPoint{}, fmt.Errorf("-workers %d: use 0 for one per core", workers)
	}
	if !async && queueCap != aquago.DefaultTxQueueCap {
		return exp.MacLoadPoint{}, fmt.Errorf("-queue %d only matters with -async", queueCap)
	}
	p := exp.MacLoadPoint{
		Pods:          1,
		PodSize:       nodes,
		RateHz:        rate,
		DurationS:     duration,
		Mode:          m,
		CarrierSense:  !noCS,
		PreambleAware: preambleAware,
		CSRangeM:      csRange,
		Seed:          seed,
		Retries:       -1,
		Workers:       workers,
		Env:           env,
	}
	if async {
		p.Queued = true
		p.QueueCap = queueCap
	}
	if err := p.Validate(); err != nil {
		return exp.MacLoadPoint{}, err
	}
	return p, nil
}

// buildScalePoint turns -scale flags into a validated harbor point.
// Lattice, pod-size, message-count and range abuse is rejected by the
// point's own Validate, shared with the scale harness. A -csrange of 0
// maps onto the harness default (30 m): an unlimited range cannot
// reuse tones, so harbor scale requires a bound.
func buildScalePoint(podsX, podsY, podSize, msgs, workers int, seed int64,
	csRange float64, env aquago.Environment) (exp.ScalePoint, error) {
	if err := validateCommonFlags(seed, csRange); err != nil {
		return exp.ScalePoint{}, err
	}
	if workers < 0 {
		return exp.ScalePoint{}, fmt.Errorf("-workers %d: use 0 for one per core", workers)
	}
	p := exp.ScalePoint{
		PodsX:    podsX,
		PodsY:    podsY,
		PodSize:  podSize,
		CSRangeM: csRange,
		Msgs:     msgs,
		Seed:     seed,
		Retries:  -1,
		Workers:  workers,
		Env:      env,
	}
	if err := p.Validate(); err != nil {
		return exp.ScalePoint{}, err
	}
	return p, nil
}

// buildStreamPoint turns -stream flags into a validated stream
// measurement point. Window, retry-budget and timer abuse (windows
// outside [1, MaxStreamWindow], zero retries, NaN quanta) is rejected
// by the point's own Validate, shared with the image harness.
func buildStreamPoint(rangeM float64, bytes, window, retries int, rto float64,
	mode string, workers int, seed int64, env aquago.Environment) (exp.StreamPoint, error) {
	if err := validateCommonFlags(seed, 0); err != nil {
		return exp.StreamPoint{}, err
	}
	m, err := parseMode(mode)
	if err != nil {
		return exp.StreamPoint{}, err
	}
	if workers < 0 {
		return exp.StreamPoint{}, fmt.Errorf("-workers %d: use 0 for one per core", workers)
	}
	p := exp.StreamPoint{
		RangeM:  rangeM,
		Bytes:   bytes,
		Window:  window,
		Retries: retries,
		RTOS:    rto,
		Mode:    m,
		Seed:    seed,
		Workers: workers,
		Env:     env,
	}
	if err := p.Validate(); err != nil {
		return exp.StreamPoint{}, err
	}
	return p, nil
}

// buildImagePoint turns -image flags into a validated progressive
// image point. Block geometry, preview thresholds, the hops/streams
// axis clash and ARQ knob abuse are rejected by the point's own
// Validate, shared with the image harness.
func buildImagePoint(blocks, blockBytes, preview, hops, streams int,
	rangeM float64, window, retries int, rto float64,
	mode string, workers int, seed int64, env aquago.Environment) (exp.ImagePoint, error) {
	if err := validateCommonFlags(seed, 0); err != nil {
		return exp.ImagePoint{}, err
	}
	m, err := parseMode(mode)
	if err != nil {
		return exp.ImagePoint{}, err
	}
	if workers < 0 {
		return exp.ImagePoint{}, fmt.Errorf("-workers %d: use 0 for one per core", workers)
	}
	p := exp.ImagePoint{
		Blocks:        blocks,
		BlockBytes:    blockBytes,
		PreviewBlocks: preview,
		Hops:          hops,
		Streams:       streams,
		RangeM:        rangeM,
		Window:        window,
		Retries:       retries,
		RTOS:          rto,
		Mode:          m,
		Seed:          seed,
		Workers:       workers,
		Env:           env,
	}
	if err := p.Validate(); err != nil {
		return exp.ImagePoint{}, err
	}
	return p, nil
}

// parsePolicy maps the -policy flag onto a routing policy.
func parsePolicy(policy string) (aquago.RoutingPolicy, error) {
	switch policy {
	case "minhop":
		return aquago.MinHop, nil
	case "minetx":
		return aquago.MinETX, nil
	default:
		return 0, fmt.Errorf("-policy %q: pick minhop or minetx", policy)
	}
}

// buildRelayPoint turns -relay flags into a validated relay
// measurement point. Hop-count, spacing and payload abuse is rejected
// by the point's own Validate, shared with the multihop harness.
func buildRelayPoint(hops int, spacing float64, bulk int, mode, policy string,
	pipelined bool, queueCap int, persist float64, adaptiveBackoff bool,
	seed int64, csRange float64, env aquago.Environment) (exp.MultiHopPoint, error) {
	if err := validateCommonFlags(seed, csRange); err != nil {
		return exp.MultiHopPoint{}, err
	}
	m, err := parseMode(mode)
	if err != nil {
		return exp.MultiHopPoint{}, err
	}
	pol, err := parsePolicy(policy)
	if err != nil {
		return exp.MultiHopPoint{}, err
	}
	if !pipelined && queueCap != aquago.DefaultTxQueueCap {
		return exp.MultiHopPoint{}, fmt.Errorf("-queue %d only matters with -pipelined", queueCap)
	}
	p := exp.MultiHopPoint{
		Hops:            hops,
		SpacingM:        spacing,
		CSRangeM:        csRange,
		PayloadBytes:    bulk,
		Mode:            m,
		Policy:          pol,
		Persist:         persist,
		AdaptiveBackoff: adaptiveBackoff,
		Seed:            seed,
		Retries:         -1,
		Env:             env,
	}
	if pipelined {
		p.Pipelined = true
		p.QueueCap = queueCap
	}
	if err := p.Validate(); err != nil {
		return exp.MultiHopPoint{}, err
	}
	return p, nil
}

// buildMobilityPoint turns -mobility flags into a validated
// drifting-diver measurement point; the point's own Validate (shared
// with the mobility harness) rejects hop/spacing/payload/drift abuse.
func buildMobilityPoint(hops int, spacing float64, bulk, chunk int, drift float64,
	pipelined bool, queueCap, workers int, seed int64, csRange float64,
	env aquago.Environment) (exp.MobilityPoint, error) {
	if err := validateCommonFlags(seed, csRange); err != nil {
		return exp.MobilityPoint{}, err
	}
	if !pipelined && queueCap != aquago.DefaultTxQueueCap {
		return exp.MobilityPoint{}, fmt.Errorf("-queue %d only matters with -pipelined", queueCap)
	}
	p := exp.MobilityPoint{
		Hops:         hops,
		SpacingM:     spacing,
		CSRangeM:     csRange,
		PayloadBytes: bulk,
		ChunkBytes:   chunk,
		DriftSpeedMS: drift,
		Seed:         seed,
		Retries:      -1,
		Env:          env,
		Workers:      workers,
	}
	if pipelined {
		p.Pipelined = true
		p.QueueCap = queueCap
	}
	if err := p.Validate(); err != nil {
		return exp.MobilityPoint{}, err
	}
	return p, nil
}

func main() {
	nTx := flag.Int("tx", 3, "number of transmitters (Fig 19 mode)")
	packets := flag.Int("packets", 120, "packets per transmitter (Fig 19 mode)")
	runs := flag.Int("runs", 5, "independent runs to average (Fig 19 mode)")
	seed := flag.Int64("seed", 1, "base random seed")
	envName := flag.String("env", "bridge", "environment (bridge/park/lake/beach/museum/bay)")
	csRange := flag.Float64("csrange", 0, "carrier-sense audibility range in meters (0 = unlimited)")
	preambleAware := flag.Bool("preamble-aware", false,
		"carrier sense also detects preambles (hears through the silent feedback window, §2.4)")
	load := flag.Bool("load", false, "offered-load mode: drive a live Network with Poisson traffic")
	nodes := flag.Int("nodes", 8, "node count, all offering traffic (-load)")
	rate := flag.Float64("rate", 0.05, "Poisson message rate per node, msg/s (-load)")
	duration := flag.Float64("duration", 120, "arrival window in virtual seconds (-load)")
	mode := flag.String("mode", "envelope", "contention mode: envelope or waveform (-load)")
	noCS := flag.Bool("no-cs", false, "disable carrier sense (-load; Fig 19 mode always runs both)")
	workers := flag.Int("workers", 0, "network scheduler worker slots, 0 = one per core (-load)")
	async := flag.Bool("async", false, "drive the load through the async transmit queues, fire-and-forget (-load)")
	queueCap := flag.Int("queue", aquago.DefaultTxQueueCap,
		"per-node transmit queue capacity (-load -async, -relay -pipelined)")
	relay := flag.Bool("relay", false, "relay mode: route a bulk payload down a multi-hop line")
	pipelined := flag.Bool("pipelined", false, "pipeline the bulk transfer over per-relay transmit queues (-relay)")
	persist := flag.Float64("persist", 0, "p-persistent MAC transmit probability in (0,1], 0 = classic backoff (-relay)")
	adaptiveBackoff := flag.Bool("adaptive-backoff", false, "scale MAC backoff quanta to the adapted band's airtime (-relay)")
	hops := flag.Int("hops", 3, "relay path length in hops (-relay)")
	spacing := flag.Float64("spacing", 25, "distance between adjacent relay nodes in meters (-relay)")
	bulk := flag.Int("bulk", 32, "bulk payload size in bytes (-relay)")
	policy := flag.String("policy", "minhop", "routing policy: minhop or minetx (-relay)")
	scale := flag.Bool("scale", false, "scale mode: build a harbor-sized pod lattice and relay cross-harbor traffic")
	podsX := flag.Int("pods-x", 5, "pod lattice columns (-scale)")
	podsY := flag.Int("pods-y", 5, "pod lattice rows (-scale)")
	podSize := flag.Int("podsize", 10, "devices per pod, 1..15 (-scale)")
	msgs := flag.Int("msgs", 8, "cross-harbor messages to relay (-scale)")
	stream := flag.Bool("stream", false, "stream mode: reliable selective-repeat ARQ transfer over one link")
	image := flag.Bool("image", false, "image mode: progressive image transmission over a stream, relay line or concurrent streams")
	rangeM := flag.Float64("range", 25, "link length / hop spacing in meters (-stream, -image)")
	streamBytes := flag.Int("bytes", 32, "stream payload size in bytes (-stream)")
	window := flag.Int("window", 0, "ARQ sender window in segments, 0 = default (-stream, -image)")
	streamRetries := flag.Int("stream-retries", 4, "per-segment retransmission budget, >= 1 (-stream, -image)")
	rto := flag.Float64("rto", 0, "retransmission backoff quantum in virtual seconds, 0 = adaptive (-stream, -image)")
	blocks := flag.Int("blocks", 16, "image blocks (-image)")
	blockSize := flag.Int("blocksize", 7, "bytes per image block before its CRC-8 trailer (-image)")
	preview := flag.Int("preview", 0, "blocks needed for a usable preview, 0 = a quarter of the image (-image)")
	streams := flag.Int("streams", 1, "concurrent image streams through one pod (-image)")
	mobility := flag.Bool("mobility", false, "mobility mode: drift a diver along a relay line while bulk-transferring")
	drift := flag.Float64("drift", 1, "diver drift speed in m/s, 0 = static baseline (-mobility)")
	chunk := flag.Int("chunk", 8, "bulk chunk size in bytes, one motion epoch per chunk (-mobility)")
	flag.Parse()

	env, ok := channel.ByName(*envName)
	if !ok {
		fmt.Fprintf(os.Stderr, "aquanet: unknown environment %q\n", *envName)
		os.Exit(1)
	}
	modes := 0
	for _, on := range []bool{*relay, *load, *scale, *stream, *image, *mobility} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fatal(errors.New("pick one of -relay, -load, -scale, -stream, -image and -mobility"))
	}
	if *mobility {
		pt, err := buildMobilityPoint(*hops, *spacing, *bulk, *chunk, *drift,
			*pipelined, *queueCap, *workers, *seed, *csRange, env)
		if err != nil {
			fatal(err)
		}
		runMobility(pt, env.Name)
		return
	}
	if *stream {
		pt, err := buildStreamPoint(*rangeM, *streamBytes, *window, *streamRetries, *rto,
			*mode, *workers, *seed, env)
		if err != nil {
			fatal(err)
		}
		runStream(pt, env.Name)
		return
	}
	if *image {
		// -hops opts the image onto the relay line; unset, it rides a
		// direct stream (the -relay default of 3 must not leak in).
		imageHops := 1
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "hops" {
				imageHops = *hops
			}
		})
		pt, err := buildImagePoint(*blocks, *blockSize, *preview, imageHops, *streams,
			*rangeM, *window, *streamRetries, *rto, *mode, *workers, *seed, env)
		if err != nil {
			fatal(err)
		}
		runImage(pt, env.Name)
		return
	}
	if *scale {
		pt, err := buildScalePoint(*podsX, *podsY, *podSize, *msgs, *workers, *seed, *csRange, env)
		if err != nil {
			fatal(err)
		}
		runScale(pt, env.Name)
		return
	}
	if *relay {
		pt, err := buildRelayPoint(*hops, *spacing, *bulk, *mode, *policy,
			*pipelined, *queueCap, *persist, *adaptiveBackoff, *seed, *csRange, env)
		if err != nil {
			fatal(err)
		}
		runRelay(pt, env.Name)
		return
	}
	if *load {
		pt, err := buildLoadPoint(*nodes, *rate, *duration, *mode, *noCS, *preambleAware,
			*workers, *async, *queueCap, *seed, *csRange, env)
		if err != nil {
			fatal(err)
		}
		runLoad(pt, env.Name)
		return
	}
	if err := validateFlags(*nTx, *packets, *runs, *seed, *csRange); err != nil {
		fatal(err)
	}
	runFig19(*nTx, *packets, *runs, *seed, *csRange, *preambleAware, env)
}

// runLoad measures one offered-load point and prints the same numbers
// the macload harness tabulates.
func runLoad(pt exp.MacLoadPoint, envName string) {
	modeName := "envelope"
	if pt.Mode == aquago.WaveformContention {
		modeName = "waveform"
	}
	sensing := "carrier sense"
	switch {
	case !pt.CarrierSense:
		sensing = "no carrier sense"
	case pt.PreambleAware:
		sensing = "preamble-aware carrier sense"
	}
	driver := "blocking sends"
	if pt.Queued {
		driver = fmt.Sprintf("async transmit queues (cap %d)", pt.QueueCap)
	}
	fmt.Printf("Offered-load simulation: %d nodes, %.3g msg/s/node over %.4g s, %s, %s mode, %s, %s\n",
		pt.PodSize, pt.RateHz, pt.DurationS, envName, modeName, sensing, driver)
	res, err := exp.RunMacLoadPoint(pt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("offered     %6d msgs %10.2f bps\n", res.OfferedMsgs, res.OfferedBPS)
	fmt.Printf("goodput     %6d msgs %10.2f bps  (makespan %.1f s)\n",
		res.DeliveredMsgs, res.GoodputBPS, res.MakespanS)
	fmt.Printf("latency     p50 %.2f s   p90 %.2f s   p99 %.2f s\n",
		res.LatencyP50S, res.LatencyP90S, res.LatencyP99S)
	fmt.Printf("losses      %d busy-drops, %d unacked, collisions %.1f%%\n",
		res.BusyDrops, res.NoACKs, 100*res.CollisionFraction)
	util := 0.0
	if res.MakespanS > 0 {
		util = res.Sched.AirtimeS / res.MakespanS
	}
	fmt.Printf("scheduler   %d granted, %d committed, airtime %.1f s (util %.0f%%), peak concurrency %d on %d workers\n",
		res.Sched.Granted, res.Sched.Committed, res.Sched.AirtimeS, 100*util,
		res.Sched.MaxConcurrent, res.Sched.Workers)
}

// runRelay measures one bulk relay transfer, printing per-hop
// progress as the payload store-and-forwards down the line.
func runRelay(pt exp.MultiHopPoint, envName string) {
	modeName := "envelope"
	if pt.Mode == aquago.WaveformContention {
		modeName = "waveform"
	}
	transfer := "store-and-forward"
	if pt.Pipelined {
		transfer = fmt.Sprintf("pipelined (queue cap %d)", pt.QueueCap)
	}
	fmt.Printf("Relay simulation: %d bytes over %d hops (%g m spacing), %s, %s mode, %v routing, %s\n",
		pt.PayloadBytes, pt.Hops, pt.SpacingM, envName, modeName, pt.Policy, transfer)
	// Per-hop progress: one line per completed hop exchange (the data
	// stage carries the band the packet re-adapted onto).
	pt.Trace = aquago.TraceFunc(func(ev aquago.StageEvent) {
		if ev.Stage != aquago.StageData {
			return
		}
		status := "lost"
		if ev.OK {
			status = "ok"
		}
		fmt.Printf("  pkt %2d/%d  hop %d/%d  data %-4s  band [%d..%d]\n",
			ev.BulkPkt+1, ev.BulkPkts, ev.Hop+1, ev.PathHops, status, ev.Band.Lo, ev.Band.Hi)
	})
	res, err := exp.RunMultiHopPoint(pt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("delivered   %d/%d packets (%d attempts) over %d hops\n",
		res.DeliveredPackets, res.Packets, res.Attempts, res.Hops)
	fmt.Printf("end-to-end  %.2f s latency, %.2f bps goodput\n", res.LatencyS, res.GoodputBPS)
}

// runMobility drifts the diver down the relay line and prints the
// same numbers the mobility harness tabulates.
func runMobility(pt exp.MobilityPoint, envName string) {
	transfer := "store-and-forward with in-flight route splices"
	if pt.Pipelined {
		transfer = fmt.Sprintf("pipelined (queue cap %d), fresh route per chunk", pt.QueueCap)
	}
	fmt.Printf("Mobility simulation: %d bytes in %d-byte chunks over %d hops (%g m spacing), diver drifting %g m/s, %s, %s\n",
		pt.PayloadBytes, pt.ChunkBytes, pt.Hops, pt.SpacingM, pt.DriftSpeedMS, envName, transfer)
	res, err := exp.RunMobilityPoint(pt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("delivered   %d/%d packets (%d attempts, %d retries) in %d chunks\n",
		res.DeliveredPackets, res.Packets, res.Attempts, res.Retries, res.Chunks)
	fmt.Printf("motion      %d position epoch(s), %d route repair(s), route %d -> %d hops\n",
		res.Epochs, res.Reroutes, res.InitialHops, res.FinalHops)
	fmt.Printf("end-to-end  %.2f s latency, %.2f bps goodput\n", res.LatencyS, res.GoodputBPS)
}

// runScale builds one harbor point and prints the same numbers the
// scale harness tabulates, splitting the deterministic traffic outcome
// from this machine's wall-clock costs.
func runScale(pt exp.ScalePoint, envName string) {
	nodes := pt.PodsX * pt.PodsY * pt.PodSize
	cs := pt.CSRangeM
	if cs == 0 {
		cs = 30
	}
	fmt.Printf("Harbor simulation: %dx%d pods of %d devices (%d nodes), %g m carrier sense, %s\n",
		pt.PodsX, pt.PodsY, pt.PodSize, nodes, cs, envName)
	res, err := exp.RunScalePoint(pt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("delivered   %d/%d cross-harbor messages over %d total hops (makespan %.1f s)\n",
		res.Delivered, res.Msgs, res.TotalHops, res.MakespanS)
	fmt.Printf("losses      %d busy-drops, %d unacked\n", res.BusyDrops, res.NoACKs)
	fmt.Printf("wall costs  join %.2f s, route %.2f s, drive %.2f s\n",
		res.JoinWallS, res.RouteWallS, res.DriveWallS)
	fmt.Printf("scheduler   %d granted, %d committed (%.1f exchanges/wall-s), airtime %.1f s, %d conflict edges\n",
		res.Sched.Granted, res.Sched.Committed, res.CommittedPerWallSec,
		res.Sched.AirtimeS, res.Sched.ConflictEdges)
}

// runStream measures one reliable stream transfer and prints the ARQ
// accounting the image harness aggregates.
func runStream(pt exp.StreamPoint, envName string) {
	modeName := "envelope"
	if pt.Mode == aquago.WaveformContention {
		modeName = "waveform"
	}
	window := pt.Window
	if window == 0 {
		window = aquago.DefaultStreamWindow
	}
	fmt.Printf("Stream simulation: %d bytes over %g m, %s, %s mode, window %d, %d retransmission(s) per segment\n",
		pt.Bytes, pt.RangeM, envName, modeName, window, pt.Retries)
	res, err := exp.RunStreamPoint(pt)
	if err != nil {
		fatal(err)
	}
	outcome := "complete"
	if res.Degraded {
		outcome = "degraded (budget exhausted; delivered prefix kept)"
	}
	fmt.Printf("delivered   %d/%d bytes in order, %s\n", res.DeliveredBytes, res.Bytes, outcome)
	fmt.Printf("arq         %d segments, %d attempts, %d retransmit(s), %d duplicate(s) absorbed\n",
		res.Segments, res.Attempts, res.Retransmits, res.DupSegments)
	fmt.Printf("end-to-end  first byte %.2f s, %.2f s latency, %.2f bps goodput\n",
		res.FirstByteS, res.LatencyS, res.GoodputBPS)
}

// runImage measures one progressive image transmission and prints the
// goodput and preview numbers the image harness sweeps.
func runImage(pt exp.ImagePoint, envName string) {
	modeName := "envelope"
	if pt.Mode == aquago.WaveformContention {
		modeName = "waveform"
	}
	transport := "direct stream"
	switch {
	case pt.Hops > 1:
		transport = fmt.Sprintf("%d-hop pipelined relay", pt.Hops)
	case pt.Streams > 1:
		transport = fmt.Sprintf("%d concurrent streams", pt.Streams)
	}
	fmt.Printf("Image simulation: %d blocks x %d B (+CRC-8) over %g m, %s, %s mode, %s\n",
		pt.Blocks, pt.BlockBytes, pt.RangeM, envName, modeName, transport)
	res, err := exp.RunImagePoint(pt)
	if err != nil {
		fatal(err)
	}
	outcome := "complete"
	if res.Degraded {
		outcome = "degraded to the verified prefix"
	}
	totalBlocks := res.Blocks
	if pt.Streams > 1 {
		totalBlocks *= pt.Streams
	}
	fmt.Printf("image       %d/%d blocks usable, %d bad CRC, %s\n",
		res.UsableBlocks, totalBlocks, res.BadCRCBlocks, outcome)
	fmt.Printf("transport   %d bytes delivered, %d attempts, %d retransmit(s), %d duplicate(s)\n",
		res.DeliveredBytes, res.Attempts, res.Retransmits, res.DupSegments)
	preview := "never"
	if res.FirstPreviewS > 0 {
		preview = fmt.Sprintf("%.2f s", res.FirstPreviewS)
	}
	fmt.Printf("end-to-end  first usable preview %s, %.2f s total, %.2f bps image goodput\n",
		preview, res.TotalS, res.GoodputBPS)
}

// runFig19 is the original batch contention mode.
func runFig19(nTx, packets, runs int, seed int64, csRange float64, preambleAware bool, env aquago.Environment) {
	// One network per run: a receiver at the origin plus nTx
	// transmitters 5-10 m out (Fig 19's deployment).
	build := func() (*aquago.Network, []*aquago.Node) {
		net, err := aquago.NewNetwork(env, aquago.WithCSRange(csRange))
		if err != nil {
			fatal(err)
		}
		if _, err := net.Join(0, aquago.Position{X: 0, Z: 1}); err != nil {
			fatal(err)
		}
		tx := make([]*aquago.Node, nTx)
		for i := range tx {
			nd, err := net.Join(aquago.DeviceID(i+1),
				aquago.Position{X: 5 + 2.5*float64(i), Y: float64(i), Z: 1})
			if err != nil {
				fatal(err)
			}
			tx[i] = nd
		}
		return net, tx
	}

	fmt.Printf("MAC simulation: %d transmitters + 1 receiver, %d packets each, %s\n",
		nTx, packets, env.Name)
	fmt.Printf("%-16s %12s %12s %10s\n", "mode", "collisions", "packets", "fraction")

	for _, cs := range []bool{false, true} {
		var fracSum float64
		var collided, total int
		for r := 0; r < runs; r++ {
			net, tx := build()
			res := net.SimulateContention(tx, aquago.ContentionConfig{
				CarrierSense:  cs,
				PacketsPerTx:  packets,
				PreambleAware: preambleAware,
				Seed:          seed + int64(r)*7919,
			})
			fracSum += res.CollisionFraction
			for _, c := range res.PerNode {
				collided += c[0]
				total += c[1]
			}
		}
		mode := "no carrier sense"
		if cs {
			mode = "carrier sense"
		}
		fmt.Printf("%-16s %12d %12d %9.1f%%\n", mode, collided, total, 100*fracSum/float64(runs))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aquanet:", err)
	os.Exit(1)
}
