package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"smartwatch/internal/cluster"
	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/host"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/tier"
	"smartwatch/internal/trace"
)

// outcome is the program output one pass produced, reduced to what the
// checks and the digest compare.
type outcome struct {
	Counts        core.Counts
	Cache         flowcache.Stats
	Alerts        []detect.Alert
	SNICProcessed uint64
	SNICDropped   uint64
	SNICP99Ns     float64
	Switch        p4switch.SwitchStats
	Events        tier.BusStats
	Host          host.FlusherStats
	Switchovers   uint64
	// StorePkts sums the packet counts of every record in the host flow
	// store (not the KV intervals, which are cumulative snapshots).
	StorePkts uint64
	KVWrites  uint64
}

func platformOutcome(rep core.Report, pls ...*core.Platform) outcome {
	o := outcome{
		Counts: rep.Counts, Cache: rep.Cache, Alerts: rep.Alerts,
		SNICProcessed: rep.SNIC.Processed, SNICDropped: rep.SNIC.Dropped,
		Switch: rep.SwitchStats, Events: rep.Events, Host: rep.Host,
		Switchovers: rep.Switchovers,
	}
	if rep.SNIC.Latency != nil {
		o.SNICP99Ns = rep.SNIC.Latency.Quantile(0.99)
	}
	for _, pl := range pls {
		o.StorePkts += storePkts(pl.Store())
		o.KVWrites += pl.KV().Writes()
	}
	return o
}

func clusterOutcome(rep cluster.Report, r *cluster.Runner) outcome {
	return platformOutcome(rep.Merged, r.Workers()...)
}

func storePkts(fs *host.FlowStore) uint64 {
	var n uint64
	fs.Each(func(r host.HostRecord) bool {
		n += r.Pkts
		return true
	})
	return n
}

// digest fingerprints the deterministic surface of an outcome.
func (o outcome) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%+v|%d|%d|%+v|%+v|%+v|%d|%d|%d|",
		o.Counts, o.Cache, o.SNICProcessed, o.SNICDropped, o.Switch,
		o.Events, o.Host, o.Switchovers, o.StorePkts, o.KVWrites)
	for _, a := range o.Alerts {
		fmt.Fprintf(h, "%s|%d|%d|%d|%v|%s\n", a.Detector, a.Ts, a.Attacker, a.Victim, a.Flow, a.Info)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// fidelityDigest fingerprints what a traced run must reproduce: counts,
// FlowCache stats, the alert list and the sNIC totals.
func (o outcome) fidelityDigest() string {
	f := outcome{
		Counts: o.Counts, Cache: o.Cache, Alerts: o.Alerts,
		SNICProcessed: o.SNICProcessed, SNICDropped: o.SNICDropped,
	}
	return f.digest()
}

// check verifies the accounting identities that hold on every run,
// whatever the seed. It returns one line per violated identity and the
// number of packets the violations leave unaccounted for.
func (o outcome) check(offered uint64) (problems []string, shortfall uint64) {
	fail := func(a, b uint64, what string) {
		if a == b {
			return
		}
		problems = append(problems, fmt.Sprintf("%s: %d != %d", what, a, b))
		shortfall += max(a, b) - min(a, b)
	}
	c := o.Counts
	fail(offered, c.Total, "offered packets != Counts.Total")
	fail(c.Total, c.ForwardedDirect+c.DroppedAtSwitch+c.ToSNIC,
		"Counts.Total != ForwardedDirect+DroppedAtSwitch+ToSNIC")
	fail(o.SNICProcessed+o.SNICDropped, c.ToSNIC, "sNIC Processed+Dropped != ToSNIC")
	fail(o.Cache.Processed(), o.SNICProcessed, "FlowCache PHits+EHits+Misses != sNIC Processed")
	if o.Cache.RingDrops == 0 {
		fail(o.StorePkts, o.Cache.Processed(), "host FlowStore packets != FlowCache processed (RingDrops=0)")
	}
	return problems, shortfall
}

// accuracy scores the alerts against the injectors' ground truth.
type accuracy struct {
	// Truth / Found: ground-truth attackers, and those named by an alert
	// from the detector matching their attack label.
	Truth, Found int
	// Alerted / Correct: distinct alerted addresses, and those in the
	// ground truth.
	Alerted, Correct int
	// FalseAlerted lists the alerted addresses outside the ground truth.
	FalseAlerted []packet.Addr
	// Labels breaks the score down per injected attack.
	Labels []labelScore
}

// labelScore is one attack's share: its ground-truth attackers, those its
// matching detector named, and every distinct address that detector
// named.
type labelScore struct {
	Label               string
	Truth, Found, Named int
}

func score(alerts []detect.Alert, truth []trace.GroundTruth) accuracy {
	var acc accuracy
	byLabel := map[string]map[packet.Addr]bool{}
	alerted := map[packet.Addr]bool{}
	var order []packet.Addr
	for _, a := range alerts {
		if byLabel[a.Detector] == nil {
			byLabel[a.Detector] = map[packet.Addr]bool{}
		}
		byLabel[a.Detector][a.Attacker] = true
		if !alerted[a.Attacker] {
			alerted[a.Attacker] = true
			order = append(order, a.Attacker)
		}
	}
	inTruth := map[packet.Addr]bool{}
	for _, t := range truth {
		ls := labelScore{Label: t.Label, Truth: len(t.Attackers), Named: len(byLabel[t.Label])}
		for _, a := range t.Attackers {
			inTruth[a] = true
			if byLabel[t.Label][a] {
				ls.Found++
			}
		}
		acc.Truth += ls.Truth
		acc.Found += ls.Found
		acc.Labels = append(acc.Labels, ls)
	}
	acc.Alerted = len(order)
	for _, a := range order {
		if inTruth[a] {
			acc.Correct++
		} else {
			acc.FalseAlerted = append(acc.FalseAlerted, a)
		}
	}
	return acc
}

// recall and precision follow the usual convention on empty sets: with
// no attackers there is nothing to miss, and with no alerts nothing is
// wrongly named.
func (a accuracy) recall() float64 {
	if a.Truth == 0 {
		return 1
	}
	return float64(a.Found) / float64(a.Truth)
}

func (a accuracy) precision() float64 {
	if a.Alerted == 0 {
		return 1
	}
	return float64(a.Correct) / float64(a.Alerted)
}
