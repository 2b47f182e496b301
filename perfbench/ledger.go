package main

import (
	"fmt"
	"math/bits"
	"runtime"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/tier"
)

// runTraced builds the per-layer ledger. Untraced passes (the end-to-end
// drive) alternate with traced passes; every traced pass must reproduce
// the untraced report exactly, or the run fails without a ledger.
//
// Single-platform workloads are traced through the assembly in traced.go.
// A cluster's layers run on worker goroutines inside cluster.Runner, so
// its ledger is read off the caller side instead: the Ingest and Drain
// spans of the untraced drive and the runner's own steering, ingress and
// per-worker reports. Layer spans a cluster run cannot observe read 0.
func runTraced(w *workload, seconds float64) (*result, error) {
	res := &result{}
	warm := runPass(w, true)
	ref := warm.out.digest()
	res.checkPass(w, warm, ref)

	var (
		plain  []pass
		walls  []float64
		tWalls []float64
		led    *ledger
		op     ops
		tPkts  int64
	)
	deadline := nanotime() + int64(seconds*1e9)
	for len(plain) < 2 || nanotime() < deadline {
		ps := runPass(w, false)
		res.checkPass(w, ps, ref)
		plain = append(plain, ps)
		walls = append(walls, float64(ps.wallNs))
		if w.workers > 0 {
			continue
		}
		runtime.GC()
		a := newAssembly(w.config())
		out, wall := a.run(w.source())
		if got, want := out.fidelityDigest(), ps.out.fidelityDigest(); got != want {
			return nil, fmt.Errorf("traced run does not reproduce the untraced report: digest %s, untraced %s\ntraced:   %+v\nuntraced: %+v",
				got, want, out.Counts, ps.out.Counts)
		}
		tWalls = append(tWalls, float64(wall))
		tPkts += int64(out.Counts.Total)
		if led == nil {
			led = a.led
		} else {
			for i, v := range a.led.self {
				led.self[i] += v
			}
			led.spans += a.led.spans
		}
		op.add(a.ops)
	}
	fmt.Printf("passes %d traced %d digest %s\n", len(plain), len(tWalls), ref)
	o := warm.out
	n := int64(len(tWalls))
	perPkt := func(ns int64) float64 { return ratio(ns, tPkts) }
	self := func(l int) int64 {
		if led == nil {
			return 0
		}
		return led.self[l]
	}
	detSelf := func(name string) int64 {
		for i, d := range w.detectorNames {
			if d == name {
				return self(lDetect0 + i)
			}
		}
		return 0
	}
	// named is the self time of every layer but core; net is the traced
	// wall time less the ledger's own clock reads.
	var named, net int64
	if led != nil {
		for l, v := range led.self {
			if l != lCore {
				named += v
			}
		}
		net = int64(sum(tWalls)) - led.overhead()
	}

	res.add("trace.gen_ns_per_pkt", float64(w.genNs)/float64(w.genPkts), "ns")

	res.add("p4switch.steer_ns_per_pkt", perPkt(self(lSwitch)-op.closeNs), "ns")
	res.add("p4switch.close_interval_us", ratio(op.closeNs, op.closeIntervals)/1e3, "us")
	res.add("p4switch.to_snic_share", ratio(int64(o.Counts.ToSNIC), int64(o.Counts.Total)), "ratio")
	res.add("p4switch.register_ops_per_pkt", ratio(int64(o.Switch.RegisterOps), int64(o.Counts.Total)), "count")

	c := o.Cache
	res.add("flowcache.ns_per_pkt", perPkt(self(lCache)), "ns")
	res.add("flowcache.hit_ratio", c.HitRate(), "ratio")
	res.add("flowcache.ehit_share", ratio(int64(c.EHits), int64(c.Processed())), "ratio")
	res.add("flowcache.evictions", float64(c.Evictions), "count")
	res.add("flowcache.ring_drops", float64(c.RingDrops), "count")
	res.add("flowcache.host_punts", float64(c.HostPunts), "count")
	res.add("flowcache.pin_denied", float64(c.PinDenied), "count")
	res.add("flowcache.switchovers", float64(o.Switchovers), "count")
	res.add("flowcache.bytes_per_bucket", cacheBytesPerBucket(w), "B")

	res.add("snic.self_ns_per_pkt", perPkt(self(lSNIC)), "ns")
	res.add("snic.modelled_drop_share", ratio(int64(o.SNICDropped), int64(o.SNICDropped+o.SNICProcessed)), "ratio")
	res.add("snic.modelled_p99_ns", o.SNICP99Ns, "ns")

	var det int64
	for i := range w.detectorNames {
		det += self(lDetect0 + i)
	}
	res.add("detect.ns_per_pkt", perPkt(det), "ns")
	res.add("detect.ssh.ns_per_pkt", perPkt(detSelf("ssh")), "ns")
	res.add("detect.lowslow.ns_per_pkt", perPkt(detSelf("lowslow")), "ns")
	res.add("detect.tick_us", ratio(op.tickNs, op.ticks)/1e3, "us")
	res.add("detect.pins", ratio(op.pins, n), "count")
	res.add("detect.blacklists", float64(o.Events.PublishedFor(tier.KindBlacklist)), "count")

	res.add("host.deliver_ns_per_pkt", perPkt(self(lHost)-op.flushNs-op.finalFlushNs), "ns")
	res.add("host.flush_us_per_interval", ratio(op.flushNs, op.flushes)/1e3, "us")
	res.add("host.final_flush_ms", ratio(op.finalFlushNs, n)/1e6, "ms")
	res.add("host.records_drained", float64(o.Host.Drained), "count")
	res.add("host.kv_writes", float64(o.KVWrites), "count")

	res.add("tier.publish_ns", ratio(self(lTier), op.publishes), "ns")
	for _, k := range tier.Kinds() {
		res.add("tier.events."+k.String(), float64(o.Events.PublishedFor(k)), "count")
	}

	var ingest []float64
	for _, ps := range plain {
		for _, v := range ps.ingestNs {
			ingest = append(ingest, float64(v)/1e3)
		}
	}
	if w.workers == 0 {
		res.add("core.drive_ns_per_pkt", perPkt(net-named), "ns")
	} else {
		res.add("core.drive_ns_per_pkt", 0, "ns")
	}
	res.add("core.ingest_p50_us", quantile(ingest, 0.5), "us")
	res.add("core.ingest_p99_us", quantile(ingest, 0.99), "us")

	addCluster(res, plain)

	med := func(f func(pass) float64) float64 { return medianOver(plain, f) }
	res.add("runtime.allocs_per_pkt", med(func(p pass) float64 { return float64(p.allocs) / float64(p.offered) }), "count")
	res.add("runtime.gc_cycles", med(func(p pass) float64 { return float64(p.gcCycles) }), "count")
	res.add("runtime.gc_pause_ms", med(func(p pass) float64 { return float64(p.gcPauseNs) / 1e6 }), "ms")

	if w.workers == 0 {
		res.add("ledger.coverage", ratio(named, net), "ratio")
		res.add("ledger.trace_overhead", median(tWalls)/median(walls)-1, "ratio")
	} else {
		// The caller's named layer time is routing (the Ingest calls)
		// and the merge; the rest of its wall time is spent pulling
		// input and, inside Drain, waiting for the workers. Timing them
		// is part of the untraced drive, so there is no overhead.
		res.add("ledger.coverage", med(func(p pass) float64 {
			var spans int64
			for _, v := range p.ingestNs {
				spans += v
			}
			return float64(spans+p.cl.MergeNs) / float64(p.wallNs)
		}), "ratio")
		res.add("ledger.trace_overhead", 0, "ratio")
	}
	res.add("ledger.sample_every", sampleEvery, "count")
	return res, nil
}

// addCluster reports the cluster layer: caller-side routing time and the
// runner's steering and ingress counters (all 0 on single-platform
// workloads, where the layer does not run).
func addCluster(res *result, plain []pass) {
	var (
		routeNs, pkts               int64
		stalls, wakeups, hwm, folds float64
		imbalance, mergeMs          []float64
	)
	for _, ps := range plain {
		if ps.cl == nil {
			continue
		}
		for _, v := range ps.ingestNs {
			routeNs += v
		}
		pkts += int64(ps.offered)
		imbalance = append(imbalance, ps.cl.Steer.Imbalance)
		mergeMs = append(mergeMs, float64(ps.cl.MergeNs)/1e6)
		folds = float64(ps.cl.Steer.Folds)
		var s, wk float64
		for _, in := range ps.cl.Ingress {
			s += float64(in.Stalls)
			wk += float64(in.Wakeups)
			hwm = max(hwm, float64(in.RingHWM))
		}
		stalls += s / float64(len(plain))
		wakeups += wk / float64(len(plain))
	}
	res.add("cluster.route_ns_per_pkt", ratio(routeNs, pkts), "ns")
	res.add("cluster.ring_stalls", stalls, "count")
	res.add("cluster.ring_hwm", hwm, "count")
	res.add("cluster.wakeups", wakeups, "count")
	res.add("cluster.imbalance", median(imbalance), "ratio")
	res.add("cluster.folds", folds, "count")
	res.add("cluster.merge_ms", median(mergeMs), "ms")
}

// cacheBytesPerBucket is the Go heap the workload's FlowCache tables
// (every worker's, for a cluster) retain, per bucket.
func cacheBytesPerBucket(w *workload) float64 {
	cfg := w.config()
	parts, offset := 1, 0
	if w.workers > 1 {
		parts, offset = w.workers, bits.TrailingZeros(uint(w.workers))
		cfg.Cache.RowBits -= offset
	}
	runtime.GC()
	base := readRuntime().heapLive
	caches := make([]*flowcache.Sharded, parts)
	for i := range caches {
		caches[i] = flowcache.NewShardedOffset(1, offset, cfg.Cache, cfg.Controller)
	}
	held := retainedSince(base)
	runtime.KeepAlive(caches)
	return float64(held) / float64(parts*cfg.Cache.Entries())
}

func (o *ops) add(b ops) {
	o.ticks += b.ticks
	o.tickNs += b.tickNs
	o.closeIntervals += b.closeIntervals
	o.closeNs += b.closeNs
	o.flushes += b.flushes
	o.flushNs += b.flushNs
	o.finalFlushNs += b.finalFlushNs
	o.publishes += b.publishes
	o.pins += b.pins
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
