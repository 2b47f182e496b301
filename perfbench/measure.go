package main

import (
	"fmt"
	"runtime"

	"smartwatch/internal/cluster"
	"smartwatch/internal/core"
	"smartwatch/internal/packet"
)

// pass is one untraced closed-loop drive: set up, push every vector,
// drain.
type pass struct {
	offered uint64
	// wallNs and cpuNs cover the first Ingest until Drain returns.
	wallNs, cpuNs int64
	// rssBase is VmRSS before setup; rssPeak is VmHWM after Drain (both
	// bytes, meaningful on a cold pass only).
	rssBase, rssPeak int64
	// setupHeap is the Go heap the platform retains after setup.
	setupHeap int64
	allocs    uint64
	gcCycles  uint64
	gcPauseNs uint64
	// ingestNs is the latency of each Ingest call, in push order.
	ingestNs []int64
	errs     []string
	out      outcome
	// cl is the cluster runner's own report (cluster workloads only).
	cl *cluster.Report
}

// runPass drives the workload once through core.Session or, for cluster
// workloads, cluster.Runner. A cold pass first returns every freed page to
// the OS and resets VmHWM, so its RSS figures are the platform's own. The
// other passes only collect garbage: the heap they reuse spares them page
// faults, whose cost on a shared virtual machine varies from pass to pass.
func runPass(w *workload, cold bool) pass {
	var ps pass
	if cold {
		settle()
		ps.rssBase = procStatusKB("VmRSS") << 10
		if !resetPeakRSS() {
			// VmHWM would still hold the input-generation peak.
			ps.errs = append(ps.errs, "cannot reset VmHWM through /proc/self/clear_refs: peak_rss_mb would include input generation")
		}
	} else {
		runtime.GC()
	}
	heap0 := readRuntime().heapLive

	if w.workers > 0 {
		r := w.newCluster()
		if err := r.Start(); err != nil {
			ps.errs = append(ps.errs, fmt.Sprintf("cluster start: %v", err))
			return ps
		}
		ps.setupHeap = retainedSince(heap0)
		ps.drive(w, r.Ingest, func() error {
			rep, err := r.Drain()
			ps.out, ps.cl = clusterOutcome(rep, r), &rep
			return err
		})
		if err := r.Close(); err != nil {
			ps.errs = append(ps.errs, fmt.Sprintf("cluster close: %v", err))
		}
		return ps
	}
	pl := core.New(w.config())
	ses := pl.NewSession()
	if err := ses.Start(); err != nil {
		ps.errs = append(ps.errs, fmt.Sprintf("session start: %v", err))
		return ps
	}
	ps.setupHeap = retainedSince(heap0)
	ps.drive(w, ses.Ingest, func() error {
		rep, err := ses.Drain()
		ps.out = platformOutcome(rep, pl)
		return err
	})
	if err := ses.Close(); err != nil {
		ps.errs = append(ps.errs, fmt.Sprintf("session close: %v", err))
	}
	return ps
}

// retainedSince collects garbage and returns the live heap grown since
// base.
func retainedSince(base uint64) int64 {
	runtime.GC()
	return int64(readRuntime().heapLive) - int64(base)
}

// drive is the timed region: the closed-loop client pushes every vector
// back to back, then drains.
func (ps *pass) drive(w *workload, ingest func([]packet.Packet) error, drain func() error) {
	rt0, pause0 := readRuntime(), gcPauseNs()
	ps.ingestNs = make([]int64, 0, 1+int(w.genPkts)/vectorLen)
	cpu0 := cpuNs()
	start := nanotime()
	for vec := range w.source() {
		t := nanotime()
		err := ingest(vec)
		ps.ingestNs = append(ps.ingestNs, nanotime()-t)
		if err != nil {
			ps.errs = append(ps.errs, fmt.Sprintf("ingest: %v", err))
			break
		}
		ps.offered += uint64(len(vec))
	}
	if err := drain(); err != nil {
		ps.errs = append(ps.errs, fmt.Sprintf("drain: %v", err))
	}
	ps.wallNs = nanotime() - start
	ps.cpuNs = cpuNs() - cpu0
	ps.rssPeak = procStatusKB("VmHWM") << 10
	rt1 := readRuntime()
	ps.allocs, ps.gcCycles = rt1.allocs-rt0.allocs, rt1.gcCycles-rt0.gcCycles
	ps.gcPauseNs = gcPauseNs() - pause0
}

// setupTimes times n set-ups, each from construction until Start returns,
// each on a heap that has returned its free pages to the OS, as a new
// process's first set-up runs. Every platform is closed again unused.
func setupTimes(w *workload, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	for range n {
		settle()
		start := nanotime()
		var err error
		var closer func() error
		if w.workers > 0 {
			r := w.newCluster()
			err, closer = r.Start(), r.Close
		} else {
			ses := core.New(w.config()).NewSession()
			err, closer = ses.Start(), ses.Close
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out = append(out, float64(nanotime()-start)/1e9)
		if err := closer(); err != nil {
			return nil, fmt.Errorf("close after set-up: %w", err)
		}
	}
	return out, nil
}
