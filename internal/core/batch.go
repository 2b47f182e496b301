// Batched drive (DESIGN.md §9): the platform's only drive. It drains
// ingest in vectors of Config.BatchSize packets (1-wide when BatchSize ≤
// 1), amortising per-packet dispatch without changing a single observable
// byte: every vector width reproduces the same committed golden digests
// (testdata/drive_golden.txt). The invariant the whole file is built
// around: batching may only move work that commutes — counter folds,
// stat-delta accumulation, hash pre-computation — and must keep every
// stateful sequence in per-packet order. Concretely:
//
//   - Timer work (detector ticks, interval closes) fires between packets
//     exactly where per-packet processing fires it: each vector is split
//     into sub-batches at the next timer boundary, with the boundary
//     recomputed after the tick that opens each sub-batch.
//   - Steering stays per-packet, interleaved with sNIC processing:
//     detector reactions publish blacklist/whitelist events that rewrite
//     the switch tables mid-stream, so pre-steering a vector would let a
//     later packet see a stale table. The pull-based stream composition
//     already gives the exact interleave; the drive just feeds it.
//   - The sNIC side stays per-packet too: the DES charges packet i+1's
//     queueing against packet i's cost, and detectors read live records.
//
// What does batch: the ingest tier (one counter fold per vector via
// tier.BatchStage), flow-identity pre-computation (one canonicalisation
// + hash per packet, reused by steer-side bookkeeping and the FlowCache),
// FlowCache stat accounting (plain accumulator, one atomic flush per
// sub-batch), and the producer handoff (packet.BufferedBatches recycles
// whole vectors instead of yielding packet by packet).
package core

import (
	"iter"

	"smartwatch/internal/packet"
	"smartwatch/internal/tier"
)

// batchedFilter turns ingest vectors into the stream the sNIC engine
// pulls: it yields every packet that reaches the sNIC, in arrival order,
// after running the wire tier over it. It consumes pre-chunked vectors
// (the session re-chunks its ingest to exact BatchSize boundaries with
// rechunk, reproducing the vector boundaries packet.BufferedBatches used
// to produce here) so that the entire pull chain — source, chunking,
// filtering, engine — runs synchronously on the one drive goroutine; that
// is what makes Session.Exec's packet-boundary control ops race-free.
func (pl *Platform) batchedFilter(vecs iter.Seq[[]packet.Packet]) packet.Stream {
	return func(yield func(packet.Packet) bool) {
		size := pl.cfg.BatchSize
		ctxStore := make([]tier.Context, size)
		ctxs := make([]*tier.Context, size)
		for i := range ctxs {
			ctxs[i] = &ctxStore[i]
		}
		for batch := range vecs {
			prepIdentity(batch, ctxs)
			if !pl.consumePrepped(batch, ctxs, yield) {
				return
			}
		}
	}
}

// prepIdentity fills ctxs[0:len(batch)] with each packet's flow identity
// — context reset, canonical key, flow hash. It touches only the context
// vector and reads only the packets.
func prepIdentity(batch []packet.Packet, ctxs []*tier.Context) {
	for j := range batch {
		c := ctxs[j]
		c.Reset(&batch[j])
		c.Key = batch[j].Key()
		c.Hash = c.Key.Hash()
		c.HasFlowID = true
	}
}

// consumePrepped runs one identity-prepped chunk through the stateful
// half of the drive — timer-split sub-batches, vectored ingest,
// per-packet steer, yield into the sNIC engine. Returns false when the
// engine stopped pulling (yield returned false); counters are flushed
// either way. Must run on the drive goroutine.
func (pl *Platform) consumePrepped(batch []packet.Packet, ctxs []*tier.Context, yield func(packet.Packet) bool) bool {
	for lo := 0; lo < len(batch); {
		// Fire timers due at the sub-batch head FIRST, then bound
		// the sub-batch below the next timer so nothing can fire
		// inside it — interval flushes and detector ticks observe
		// exactly the state per-packet processing would show them.
		pl.maybeTick(batch[lo].Ts)
		bound := pl.nextTick
		if pl.nextInterval < bound {
			bound = pl.nextInterval
		}
		hi := lo + 1
		for hi < len(batch) && batch[hi].Ts < bound {
			hi++
		}
		sub := batch[lo:hi]
		cs := ctxs[lo:hi]

		if pl.steer == nil {
			// Wire pipeline is ingest-only: run it as one vector
			// through the tier batch API (which observes metrics
			// itself).
			pl.wire.ProcessBatch(cs)
		} else {
			pl.ingest.ProcessBatch(cs)
			if pl.metrics != nil {
				// Ingest ran outside the pipeline walk, so observe it
				// here (stage 0 of the wire pipeline).
				for j := range sub {
					pl.wire.ObserveStage(0, cs[j])
				}
			}
		}

		// Verdict counters fold once per sub-batch: nothing reads
		// them until Report, so deferring the atomic adds commutes.
		var direct, dropped, toSNIC uint64
		flush := func() {
			pl.counts.forwardedDirect.Add(direct)
			pl.counts.droppedAtSwitch.Add(dropped)
			pl.counts.toSNIC.Add(toSNIC)
			pl.cache.FlushAcc(&pl.batchAcc)
		}
		for j := range sub {
			c := cs[j]
			if pl.steer != nil {
				// Steer per-packet: the sNIC processing of the
				// previous packet (inside the last yield) may have
				// programmed the switch tables this decision reads.
				pl.steer.Handle(c)
				if pl.metrics != nil {
					// Stage 1 of the wire pipeline, run outside the
					// pipeline walk — observe for metric parity.
					pl.wire.ObserveStage(1, c)
				}
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
			pl.pendHash, pl.pendKey = c.Hash, c.Key
			if !yield(sub[j]) {
				flush()
				return false
			}
		}
		// Flush before the next maybeTick: interval observers must
		// see aggregate stats exactly as per-packet processing left
		// them.
		flush()
		lo = hi
	}
	return true
}

// rechunk re-vectors an ingest sequence to exact size boundaries,
// reproducing packet.BufferedBatches' vector shape (every yielded vector
// holds exactly size packets except possibly the last) without a producer
// goroutine. Aligned input vectors — the common case, since the one-shot
// Run wrapper ingests in multiples of BatchSize — are subsliced in place;
// stragglers accumulate in a carry buffer. Yielded vectors are only valid
// until the next iteration, same contract as BufferedBatches.
func rechunk(vecs iter.Seq[[]packet.Packet], size int) iter.Seq[[]packet.Packet] {
	return func(yield func([]packet.Packet) bool) {
		carry := make([]packet.Packet, 0, size)
		for b := range vecs {
			if len(carry) > 0 {
				n := size - len(carry)
				if n > len(b) {
					n = len(b)
				}
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
