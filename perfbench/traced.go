package main

import (
	"iter"
	"sync/atomic"

	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/host"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
	"smartwatch/internal/tier"
)

// Layers of the ledger. Detectors follow lDetect0, one layer each.
const (
	lTrace = iota
	lSwitch
	lCache
	lSNIC
	lHost
	lTier
	lCore
	lDetect0
)

// sampleEvery: per-packet spans are recorded on one 64-packet chunk in
// this many and scaled up by it. A clock read costs ~45 ns on a 2-vCPU
// Xeon virtual machine, so timing every packet would double the drive.
// The rate shares no factor with the 8 chunks of a 512-packet vector, so
// the sampled chunk walks through every position in the vector instead of
// always being the one right after the hand-off.
const sampleEvery = 7

// ledger accumulates self time per layer from nested spans. A span's self
// time is its duration minus the spans it encloses. Span durations are
// corrected for the clock reads the ledger itself makes (see clockCost),
// so layer self times estimate the untraced program.
type ledger struct {
	on     bool
	weight int64
	self   []int64
	stack  []frame
	// inner is the duration an empty span measures; pair is the full
	// cost of one begin/end pair to the enclosing span.
	inner, pair int64
	// spans counts closed spans.
	spans int64
}

type frame struct {
	layer        int
	start, child int64
}

func newLedger(layers int) *ledger {
	l := &ledger{self: make([]int64, layers), stack: make([]frame, 0, 16)}
	l.inner, l.pair = clockCost()
	return l
}

// clockCost measures what an empty span reads as and what a begin/end
// pair costs its enclosing span.
func clockCost() (inner, pair int64) {
	const n = 200_000
	l := &ledger{self: make([]int64, 1), stack: make([]frame, 0, 1), on: true, weight: 1}
	start := nanotime()
	for range n {
		l.begin(0)
		l.end()
	}
	return l.self[0] / n, (nanotime() - start) / n
}

func (l *ledger) begin(layer int) {
	if l.on {
		l.stack = append(l.stack, frame{layer: layer, start: nanotime()})
	}
}

// end closes the innermost span and returns its corrected duration (0
// when untimed).
func (l *ledger) end() int64 {
	if !l.on {
		return 0
	}
	t := nanotime()
	n := len(l.stack) - 1
	f := l.stack[n]
	l.stack = l.stack[:n]
	d := t - f.start - l.inner
	l.self[f.layer] += (d - f.child) * l.weight
	l.spans++
	if n > 0 {
		l.stack[n-1].child += d + l.pair
	}
	return d
}

// overhead estimates the wall time the ledger's own clock reads added.
func (l *ledger) overhead() int64 { return l.spans * l.pair }

// sample switches per-packet spans on for one chunk in sampleEvery.
func (l *ledger) sample(on bool) { l.on, l.weight = on, sampleEvery }

// always runs fn with every span timed at weight 1: timer edges are rare
// and large, so they are timed on every occurrence. It must be called
// with no span open.
func (l *ledger) always(fn func()) {
	on, w := l.on, l.weight
	l.on, l.weight = true, 1
	fn()
	l.on, l.weight = on, w
}

// ops counts operations, and totals the time of the always-timed ones.
type ops struct {
	ticks, tickNs           int64
	closeIntervals, closeNs int64
	flushes, flushNs        int64
	finalFlushNs            int64
	publishes               int64
	pins                    int64
}

// assembly is core.Session's batched drive rebuilt from the layers'
// public entry points, in core/batch.go's order, with a span around every
// call into a layer. It keeps core's glue: the vector hand-off to a drive
// goroutine and back, the ingest stage's per-packet timer check, tier
// pipelines on both sides of the switch, and atomic counter folds. It
// leaves out what the workloads never exercise (metrics, Exec control
// closures) and the session's per-interval snapshot capture. It must
// reproduce the platform's report exactly.
type assembly struct {
	led *ledger
	ops ops

	cfg     core.Config
	bus     *tier.Bus
	cache   *flowcache.Sharded
	sw      *p4switch.Switch
	tracker *p4switch.Tracker
	// steer is the timed switch stage, nil without a switch; ingest, wire
	// and nic are core's ingest stage and wire- and sNIC-side pipelines.
	steer     tier.Stage
	ingest    *ingestStage
	wire      *tier.Pipeline
	nic       *tier.Pipeline
	store     *host.FlowStore
	kv        *host.KVStore
	chain     *detect.Chain
	hostStage *host.Stage
	flusher   *host.Flusher
	engine    *snic.Engine

	acc       flowcache.BatchAcc
	nicCtx    tier.Context
	pendHash  uint64
	pendKey   packet.FlowKey
	pendValid bool

	nextTick, nextInterval int64
	counts                 counters
	alerts                 []detect.Alert
}

// counters are core.Platform's drive counters, atomic as there.
type counters struct {
	total, forwardedDirect, droppedAtSwitch, toSNIC, toHost, blocked, intervals atomic.Uint64
}

func (c *counters) snapshot() core.Counts {
	return core.Counts{
		Total: c.total.Load(), ForwardedDirect: c.forwardedDirect.Load(),
		DroppedAtSwitch: c.droppedAtSwitch.Load(), ToSNIC: c.toSNIC.Load(),
		ToHost: c.toHost.Load(), Blocked: c.blocked.Load(), Intervals: c.intervals.Load(),
	}
}

// timedStage charges a tier stage's work to a ledger layer.
type timedStage struct {
	tier.Stage
	led   *ledger
	layer int
}

func (t *timedStage) Handle(ctx *tier.Context) {
	t.led.begin(t.layer)
	t.Stage.Handle(ctx)
	t.led.end()
}

// timedHost is the sNIC pipeline's host stage, timed on the packets it
// delivers. Most packets only test ctx.ToHost there, a check too short to
// time against the clock's own cost.
type timedHost struct {
	*host.Stage
	led *ledger
}

func (t *timedHost) Handle(ctx *tier.Context) {
	if !ctx.ToHost {
		t.Stage.Handle(ctx)
		return
	}
	t.led.begin(lHost)
	t.Stage.Handle(ctx)
	t.led.end()
}

// timedDetector charges a detector's work to its own ledger layer.
type timedDetector struct {
	detect.Detector
	led   *ledger
	layer int
}

func (t *timedDetector) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) detect.Reaction {
	t.led.begin(t.layer)
	r := t.Detector.OnPacket(p, rec, ctx)
	t.led.end()
	return r
}

func (t *timedDetector) Tick(now int64) {
	t.led.begin(t.layer)
	t.Detector.Tick(now)
	t.led.end()
}

// hooks is detect.Hooks over the assembly's bus, as core.Platform
// implements it.
type hooks struct{ a *assembly }

func (h hooks) Unpin(k packet.FlowKey)     { h.a.publish(tier.UnpinEvent{Key: k, Origin: "hooks"}) }
func (h hooks) Whitelist(k packet.FlowKey) { h.a.publish(tier.WhitelistEvent{Key: k, Origin: "hooks"}) }
func (h hooks) Blacklist(a packet.Addr)    { h.a.publish(tier.BlacklistEvent{Addr: a, Origin: "hooks"}) }

// newAssembly mirrors core.New for the configurations the workloads use
// (one shard, tier pipeline, no metrics).
func newAssembly(cfg core.Config) *assembly {
	if cfg.SNIC.Profile.ClockHz == 0 {
		cfg.SNIC = snic.DefaultConfig()
	}
	if cfg.IntervalNs <= 0 {
		cfg.IntervalNs = 100e6
	}
	if cfg.TickNs <= 0 {
		cfg.TickNs = cfg.IntervalNs / 10
	}
	a := &assembly{cfg: cfg, led: newLedger(lDetect0 + len(cfg.Detectors)), bus: tier.NewBus()}
	a.cache = flowcache.NewShardedOffset(1, 0, cfg.Cache, cfg.Controller)
	a.store = host.NewFlowStore(cfg.HostCost)
	a.kv = host.NewKVStore(nil)
	ports := host.NewPorts(a.store)
	wrapped := make([]detect.Detector, len(cfg.Detectors))
	for i, d := range cfg.Detectors {
		if hd, ok := d.(interface{ SetHooks(detect.Hooks) }); ok {
			hd.SetHooks(hooks{a})
		}
		wrapped[i] = &timedDetector{Detector: d, led: a.led, layer: lDetect0 + i}
	}
	a.chain = detect.NewChain(wrapped...)
	if cfg.EnableSwitch {
		swCfg := cfg.Switch
		if swCfg.SRAMBytes == 0 {
			swCfg = p4switch.DefaultConfig()
		}
		a.sw = p4switch.New(swCfg)
		if err := a.sw.InstallQueries(cfg.Queries); err != nil {
			panic(err) // the workload's query set is fixed; core.New panics alike
		}
		a.tracker = p4switch.NewTracker(cfg.Queries, 0)
		a.steer = &timedStage{Stage: &p4switch.SteerStage{SW: a.sw, Tracker: a.tracker}, led: a.led, layer: lSwitch}
	}
	a.hostStage = &host.Stage{Ports: ports}
	a.ingest = &ingestStage{a}
	a.wire = tier.NewPipeline(a.ingest, a.steer)
	a.nic = tier.NewPipeline(&datapathStage{a}, &timedHost{Stage: a.hostStage, led: a.led})
	a.flusher = &host.Flusher{Store: a.store, Ports: ports, KV: a.kv, Rings: a.cache.Rings()}
	a.nextInterval, a.nextTick = cfg.IntervalNs, cfg.TickNs
	a.engine = snic.New(cfg.SNIC, a.handle)
	a.subscribe()
	return a
}

// subscribe wires the bus exactly as core.Platform.wireBus does;
// subscription order is delivery order.
func (a *assembly) subscribe() {
	led := a.led
	if a.sw != nil {
		a.bus.Subscribe(tier.KindWhitelist, "switch-program", func(e tier.Event) {
			led.begin(lSwitch)
			_ = a.sw.Whitelist(e.(tier.WhitelistEvent).Key) // a full table only costs the fast path
			led.end()
		})
		a.bus.Subscribe(tier.KindBlacklist, "switch-program", func(e tier.Event) {
			led.begin(lSwitch)
			a.sw.Blacklist(e.(tier.BlacklistEvent).Addr)
			led.end()
		})
		a.bus.Subscribe(tier.KindInterval, "switch-steer", func(e tier.Event) {
			led.begin(lSwitch)
			a.sw.CloseInterval(a.tracker)
			a.ops.closeNs += led.end()
			a.ops.closeIntervals++
		})
	}
	a.bus.Subscribe(tier.KindWhitelist, "cache-unpin", func(e tier.Event) {
		led.begin(lCache)
		a.cache.Unpin(e.(tier.WhitelistEvent).Key)
		led.end()
	})
	a.bus.Subscribe(tier.KindUnpin, "cache-unpin", func(e tier.Event) {
		led.begin(lCache)
		a.cache.Unpin(e.(tier.UnpinEvent).Key)
		led.end()
	})
	a.bus.Subscribe(tier.KindInterval, "host-flush", func(e tier.Event) {
		led.begin(lHost)
		a.flusher.OnInterval(e.(tier.IntervalEvent).Ts)
		a.ops.flushNs += led.end()
		a.ops.flushes++
	})
	a.cache.OnModeSwitch = func(shard int, m flowcache.Mode, rate float64, ts int64) {
		a.publish(tier.ModeSwitchEvent{Shard: shard, Mode: m, Rate: rate, Ts: ts})
	}
}

func (a *assembly) publish(e tier.Event) {
	a.ops.publishes++
	a.led.begin(lTier)
	a.bus.Publish(e)
	a.led.end()
}

// maybeTick runs the timer work due at or before ts (core.Platform's
// maybeTick), always timed.
func (a *assembly) maybeTick(ts int64) {
	if ts < a.nextTick && ts < a.nextInterval {
		return
	}
	a.led.always(func() {
		for ts >= a.nextTick {
			t := nanotime()
			a.chain.Tick(a.nextTick)
			a.alerts = append(a.alerts, a.chain.Drain()...)
			a.ops.tickNs += nanotime() - t
			a.ops.ticks++
			a.nextTick += a.cfg.TickNs
		}
		for ts >= a.nextInterval {
			seq := a.counts.intervals.Add(1)
			a.publish(tier.IntervalEvent{Ts: a.nextInterval, Seq: seq})
			a.nextInterval += a.cfg.IntervalNs
		}
	})
}

// run drives the vectors through the assembly as a closed-loop client
// drives a session: the caller hands each vector to a drive goroutine and
// waits for its acknowledgement. It returns the outcome and the wall time
// from the first vector until the final flush returned. The caller's wait
// for the next vector is charged to the trace layer; the hand-off itself
// stays in core's residual.
func (a *assembly) run(src iter.Seq[[]packet.Packet]) (outcome, int64) {
	in, ack := make(chan []packet.Packet), make(chan struct{})
	done := make(chan outcome)
	go func() { done <- a.drive(in, ack) }()

	var genNs int64
	start := nanotime()
	t := start
	for vec := range src {
		genNs += nanotime() - t
		in <- vec
		<-ack
		t = nanotime()
	}
	genNs += nanotime() - t
	close(in)
	out := <-done
	wall := nanotime() - start
	a.led.self[lTrace] += genNs
	return out, wall
}

// drive is the session's drive goroutine: core's driveBatches over the
// ingested vectors, then its end-of-drive tail.
func (a *assembly) drive(in <-chan []packet.Packet, ack chan<- struct{}) outcome {
	vecs := func(yield func([]packet.Packet) bool) {
		for b := range in {
			more := yield(b)
			ack <- struct{}{}
			if !more {
				return
			}
		}
	}
	rep := a.engine.Run(a.filter(rechunk(vecs, a.cfg.BatchSize)))
	a.cache.FlushAcc(&a.acc)
	a.maybeTick(a.nextInterval)
	a.alerts = append(a.alerts, a.chain.Drain()...)
	a.led.always(func() {
		a.led.begin(lHost)
		a.flusher.FinalFlush(a.nextInterval, a.cache.Snapshot)
		a.ops.finalFlushNs = a.led.end()
	})

	out := platformOutcome(core.Report{
		Counts: a.counts.snapshot(), SNIC: rep, Cache: a.cache.Stats(), Alerts: a.alerts,
		Switchovers: a.cache.Switchovers(), Events: a.bus.Stats(),
		Host: a.flusher.Stats(),
	})
	if a.sw != nil {
		out.Switch = a.sw.Stats()
	}
	out.StorePkts, out.KVWrites = storePkts(a.store), a.kv.Writes()
	return out
}

// filter is core's batchedFilter: pre-compute flow identity per chunk,
// then the stateful half.
func (a *assembly) filter(chunks iter.Seq[[]packet.Packet]) packet.Stream {
	return func(yield func(packet.Packet) bool) {
		size := a.cfg.BatchSize
		store := make([]tier.Context, size)
		ctxs := make([]*tier.Context, size)
		for i := range ctxs {
			ctxs[i] = &store[i]
		}
		chunk := 0
		for batch := range chunks {
			a.led.sample(chunk%sampleEvery == 0)
			chunk++
			for j := range batch {
				c := ctxs[j]
				c.Reset(&batch[j])
				c.Key = batch[j].Key()
				c.Hash = c.Key.Hash()
				c.HasFlowID = true
			}
			ok := a.consume(batch, ctxs, yield)
			a.led.sample(false)
			if !ok {
				return
			}
		}
	}
}

// consume is core's consumePrepped: timer-split sub-batches, vectored
// ingest, per-packet steering, then a yield into the sNIC engine per
// surviving packet.
func (a *assembly) consume(batch []packet.Packet, ctxs []*tier.Context, yield func(packet.Packet) bool) bool {
	led := a.led
	for lo := 0; lo < len(batch); {
		a.maybeTick(batch[lo].Ts)
		bound := min(a.nextTick, a.nextInterval)
		hi := lo + 1
		for hi < len(batch) && batch[hi].Ts < bound {
			hi++
		}
		sub, cs := batch[lo:hi], ctxs[lo:hi]
		if a.steer == nil {
			a.wire.ProcessBatch(cs)
		} else {
			a.ingest.ProcessBatch(cs)
		}

		var direct, dropped, toSNIC uint64
		flush := func() {
			a.counts.forwardedDirect.Add(direct)
			a.counts.droppedAtSwitch.Add(dropped)
			a.counts.toSNIC.Add(toSNIC)
			led.begin(lCache)
			a.cache.FlushAcc(&a.acc)
			led.end()
		}
		for j := range sub {
			c := cs[j]
			if a.steer != nil {
				a.steer.Handle(c)
				if c.Verdict == tier.ForwardDirect {
					direct++
					continue
				}
				if c.Verdict == tier.DropAtSwitch {
					dropped++
					continue
				}
			}
			toSNIC++
			a.pendHash, a.pendKey, a.pendValid = c.Hash, c.Key, true
			led.begin(lSNIC)
			ok := yield(sub[j])
			led.end()
			if !ok {
				flush()
				return false
			}
		}
		flush()
		lo = hi
	}
	return true
}

// ingestStage is core's ingest stage: timers due before each packet, then
// one counter fold per vector. Inside a timer-split sub-batch every timer
// check is a no-op.
type ingestStage struct{ a *assembly }

func (s *ingestStage) Name() string { return "ingest" }

func (s *ingestStage) Handle(ctx *tier.Context) {
	s.a.maybeTick(ctx.Pkt.Ts)
	s.a.counts.total.Add(1)
}

func (s *ingestStage) ProcessBatch(ctxs []*tier.Context) {
	for _, c := range ctxs {
		s.a.maybeTick(c.Pkt.Ts)
	}
	s.a.counts.total.Add(uint64(len(ctxs)))
}

// handle is core's tierHandler: the sNIC-side pipeline (datapath, then
// host) and the counter folds. Its glue is charged to core, so the
// enclosing sNIC span keeps only the engine's own work.
func (a *assembly) handle(p *packet.Packet, sctx snic.Ctx) snic.Cost {
	a.led.begin(lCore)
	ctx := &a.nicCtx
	ctx.Reset(p)
	ctx.SNIC = sctx
	if a.pendValid {
		ctx.Hash, ctx.Key, ctx.HasFlowID = a.pendHash, a.pendKey, true
		a.pendValid = false
	}
	a.nic.Process(ctx)
	if ctx.HostDeliveries > 0 {
		a.counts.toHost.Add(uint64(ctx.HostDeliveries))
	}
	if ctx.Cost.Drop {
		a.counts.blocked.Add(1)
	}
	a.led.end()
	return ctx.Cost
}

// datapathStage is core's datapath stage on the batched drive, where every
// packet carries its pre-computed flow identity.
type datapathStage struct{ a *assembly }

func (s *datapathStage) Name() string { return "datapath" }

func (s *datapathStage) Handle(ctx *tier.Context) {
	a, led := s.a, s.a.led
	p, k := ctx.Pkt, ctx.Key
	led.begin(lCache)
	rec, res := a.cache.ObserveProcessHashed(p, ctx.Hash, k, &a.acc)
	led.end()
	ctx.Rec, ctx.Res = rec, res
	if rec == nil && res.Outcome == flowcache.HostPunt {
		ctx.Punted = true
		led.begin(lHost)
		a.hostStage.Deliver(ctx)
		led.end()
	}
	r := a.chain.OnPacket(p, rec, ctx.SNIC)
	ctx.Cost = snic.Cost{Reads: res.Reads, Writes: res.Writes, ExtraCycles: r.ExtraCycles}
	if r.Pin {
		a.ops.pins++
		led.begin(lCache)
		a.cache.Pin(k)
		led.end()
	}
	if r.Unpin {
		led.begin(lCache)
		a.cache.Unpin(k)
		led.end()
	}
	if r.Whitelist {
		a.publish(tier.WhitelistEvent{Key: k, Origin: "detector"})
	}
	if r.BlacklistSrc {
		a.publish(tier.BlacklistEvent{Addr: p.Tuple.SrcIP, Origin: "detector"})
	}
	if r.ToHost {
		ctx.ToHost = true
	}
	if r.DropPacket {
		ctx.Cost.Drop = true
	}
}

// rechunk is core's rechunk: exact size-packet vectors, the last possibly
// short.
func rechunk(vecs iter.Seq[[]packet.Packet], size int) iter.Seq[[]packet.Packet] {
	return func(yield func([]packet.Packet) bool) {
		carry := make([]packet.Packet, 0, size)
		for b := range vecs {
			if len(carry) > 0 {
				n := min(size-len(carry), len(b))
				carry = append(carry, b[:n]...)
				b = b[n:]
				if len(carry) < size {
					continue
				}
				if !yield(carry) {
					return
				}
				carry = carry[:0]
			}
			for len(b) >= size {
				if !yield(b[:size]) {
					return
				}
				b = b[size:]
			}
			carry = append(carry, b...)
		}
		if len(carry) > 0 {
			yield(carry)
		}
	}
}
