package main

import (
	"fmt"
	"iter"

	"smartwatch/internal/cluster"
	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/pcap"
	"smartwatch/internal/trace"
)

// vectorLen is the closed-loop client's Ingest granularity: one vector is
// pushed, the call returns once the drive has processed it, the next one
// follows.
const vectorLen = 512

const bgFeeds = 8

// workload is one named input plus the platform assembly it runs on.
type workload struct {
	name string
	// config returns a fresh platform config; detectors hold per-flow
	// state, so every pass gets new instances.
	config func() core.Config
	// detectors builds a fresh detector set; detectorNames are the short
	// names ("ssh", "lowslow") the ledger reports them under, in order.
	detectors     func() []detect.Detector
	detectorNames []string
	// workers > 0 drives a cluster.Runner of that width instead of one
	// platform.
	workers int
	// input is the pre-generated packet sequence; nil means live is
	// generated during the drive.
	input []packet.Packet
	live  *trace.Workload
	// truth is the injected attacks' ground truth (empty for benign
	// mixes).
	truth []trace.GroundTruth
	// genNs / genPkts time the input generator.
	genNs   int64
	genPkts int64
}

// capacity is the table capacity in flow records (rows x buckets).
func (w *workload) capacity() int {
	return w.config().Cache.Entries()
}

// source returns the packet vectors the closed-loop client pushes.
func (w *workload) source() iter.Seq[[]packet.Packet] {
	if w.input != nil {
		in := w.input
		return func(yield func([]packet.Packet) bool) {
			for off := 0; off < len(in); off += vectorLen {
				if !yield(in[off:min(off+vectorLen, len(in))]) {
					return
				}
			}
		}
	}
	// The generator runs on its own goroutine, one vector ahead of the
	// drive: this is Session.IngestStream's feed (the smartwatch -gen
	// path).
	return packet.BufferedBatches(w.live.Stream(), vectorLen)
}

// newCluster assembles the cluster runner for the workload.
func (w *workload) newCluster() *cluster.Runner {
	wc := w.config()
	wc.Detectors = nil
	return cluster.New(cluster.Config{
		Workers:   w.workers,
		Worker:    wc,
		Detectors: w.detectors,
		Steer:     cluster.SteerHash,
	})
}

// buildWorkload generates the named workload's inputs from seed.
func buildWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "edge_ips", "cluster_w2":
		w := edgeIPS(seed)
		if name == "cluster_w2" {
			w.name, w.workers = name, 2
		}
		return w, nil
	case "flow_churn":
		return flowChurn(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want edge_ips, flow_churn or cluster_w2)", name)
}

// edgeIPS is the paper's deployment: CAIDA-2018-like background with an
// SSH brute-force campaign and a /24 connection-exhaustion attack merged
// in, switch tier on with the standing query set, ssh and lowslow
// detectors.
func edgeIPS(seed uint64) *workload {
	streams := make([]packet.Stream, 0, bgFeeds+2)
	for i := range bgFeeds {
		bg := trace.CAIDA(2018).Config()
		bg.Seed = seed*bgFeeds + uint64(i)
		bg.Flows /= bgFeeds
		bg.Servers = 0 // re-derived for the smaller population
		bg.PacketRate /= bgFeeds
		bg.Duration = 0.6e9
		streams = append(streams, trace.NewWorkload(bg).Stream())
	}
	// The injectors keep their default pacing, so the attacks outlast the
	// background and every idle deadline the lowslow detector arms
	// expires inside the trace.
	ssh := trace.BruteForce(trace.BruteForceConfig{Seed: seed, LegitClients: 50})
	exhaust := trace.ConnExhaust(trace.ConnExhaustConfig{Seed: seed})
	mix := pcap.Merge(append(streams, ssh.Stream(), exhaust.Stream())...)

	w := &workload{
		name:          "edge_ips",
		detectors:     edgeDetectors,
		detectorNames: []string{"ssh", "lowslow"},
		truth:         []trace.GroundTruth{ssh.Truth(), exhaust.Truth()},
	}
	w.config = func() core.Config {
		return core.Config{
			Cache:        flowcache.DefaultConfig(14),
			EnableSwitch: true,
			Queries:      defaultQueries(),
			Detectors:    edgeDetectors(),
			BatchSize:    64,
		}
	}
	// Size the slice exactly before filling it: growing it by doubling
	// would leave the high-water mark at twice the input.
	n := packet.Count(mix)
	w.input = make([]packet.Packet, 0, n)
	start := nanotime()
	for p := range mix {
		w.input = append(w.input, p)
	}
	w.genNs, w.genPkts = nanotime()-start, int64(len(w.input))
	return w
}

func edgeDetectors() []detect.Detector {
	return []detect.Detector{
		detect.NewBruteForce(detect.BruteForceConfig{Service: trace.PortSSH}),
		detect.NewLowSlow(detect.LowSlowConfig{}),
	}
}

// flowChurn is the FlowCache write path: a CAIDA-2019-like population
// flattened so it overflows a 2^16-row table, switch and detectors off,
// packets generated live during the drive.
func flowChurn(seed uint64) *workload {
	cfg := trace.CAIDA(2019).Config()
	cfg.Seed = seed
	cfg.ZipfS = 0.8
	cfg.Flows = 2_000_000
	cfg.Servers = 0 // re-derived for the larger population
	cfg.Duration = 0.8e9
	wl := trace.NewWorkload(cfg)
	w := &workload{
		name:      "flow_churn",
		live:      wl,
		detectors: func() []detect.Detector { return nil },
		config: func() core.Config {
			return core.Config{Cache: flowcache.DefaultConfig(16), BatchSize: 64}
		},
	}
	start := nanotime()
	w.genPkts = packet.Count(wl.Stream())
	w.genNs = nanotime() - start
	return w
}

// defaultQueries is the standing coarse query set `smartwatch -switch`
// installs (cmd/smartwatch keeps it in package main, so it is restated
// here).
func defaultQueries() []p4switch.Query {
	return []p4switch.Query{
		{
			Name:   "ssh-conns",
			Filter: p4switch.Predicate{Proto: packet.ProtoTCP, ServicePort: trace.PortSSH},
			Key:    p4switch.KeyDstIP, PrefixBits: 16,
			Reduce: p4switch.CountSYN, Threshold: 5, Slots: 1 << 12,
		},
		{
			Name:   "syn-fanout",
			Filter: p4switch.Predicate{Proto: packet.ProtoTCP},
			Key:    p4switch.KeyDstIP, PrefixBits: 16,
			Reduce: p4switch.CountSYN, Threshold: 50, Slots: 1 << 12,
		},
		{
			Name:   "rst-burst",
			Filter: p4switch.Predicate{Proto: packet.ProtoTCP},
			Key:    p4switch.KeyDstIP, PrefixBits: 16,
			Reduce: p4switch.CountRST, Threshold: 10, Slots: 1 << 12,
		},
	}
}
