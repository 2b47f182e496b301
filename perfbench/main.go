// Command perfbench is the platform benchmark: it drives the assembled
// SmartWatch platform (core.Session, cluster.Runner) closed-loop on one
// named workload, checks the outputs, and prints the end-to-end metrics
// (-trace 0) or a per-layer ledger from a separately traced run
// (-trace 1). The last line of standard output is the JSON result.
//
//	bash perfbench/run.sh --workload edge_ips --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads and every metric's definition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "edge_ips", "workload: edge_ips, flow_churn or cluster_w2")
		seed    = flag.Uint64("seed", 1, "workload seed (inputs are a pure function of it)")
		seconds = flag.Float64("seconds", 20, "measurement time; passes repeat until it is spent")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger from a traced run")
		rev     = flag.String("rev", "none", "git revision, when known")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *traced))
	}
	w, err := buildWorkload(*name, *seed)
	if err != nil {
		fatal(err)
	}
	prov := map[string]any{
		"workload": w.name, "seed": *seed, "git_revision": *rev,
		"source_digest": sourceDigest("."), "go": runtime.Version(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu": cpuModel(), "input_packets": w.genPkts,
	}
	b, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", b)

	var res *result
	if *traced == 1 {
		res, err = runTraced(w, *seconds)
	} else {
		res, err = runUntraced(w, *seconds)
	}
	if err != nil {
		fatal(err)
	}
	res.print()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what a run prints.
type result struct {
	attempted, failed uint64
	problems          []string
	metrics           []metric
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// fail records a failed check and the operations it cost.
func (r *result) fail(ops uint64, format string, args ...any) {
	r.failed += ops
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) print() {
	for _, p := range r.problems {
		fmt.Printf("check failed: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && len(r.problems) == 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		fmt.Printf("%-34s %16.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// checkPass applies the output checks to one pass and folds its failures
// into the result. ref is the digest every pass at this seed must match.
func (r *result) checkPass(w *workload, ps pass, ref string) {
	expected := uint64(w.genPkts)
	r.attempted += expected
	for _, e := range ps.errs {
		r.fail(1, "%s", e)
	}
	if ps.offered < expected {
		r.fail(expected-ps.offered, "offered %d of %d packets", ps.offered, expected)
	}
	problems, shortfall := ps.out.check(ps.offered)
	if len(problems) > 0 {
		r.fail(shortfall, "%s", strings.Join(problems, "; "))
	}
	if d := ps.out.digest(); d != ref {
		r.fail(1, "output digest %s differs from the first pass's %s at the same seed", d, ref)
	}
}

// setupRepeats is how many set-ups setup_s is the median of.
const setupRepeats = 7

// runUntraced measures the end-to-end metrics: one cold warm-up pass,
// which alone gives peak_rss_mb, then setupRepeats set-ups, then passes
// until the time is spent; the other figures are medians over those
// passes.
func runUntraced(w *workload, seconds float64) (*result, error) {
	res := &result{}
	warm := runPass(w, true)
	ref := warm.out.digest()
	res.checkPass(w, warm, ref)
	acc := score(warm.out.Alerts, w.truth)
	printAccuracy(w, acc)
	setups, err := setupTimes(w, setupRepeats)
	if err != nil {
		return nil, err
	}

	// Each timed pass is bracketed by memory probes; its speed factor is
	// the mean of the two readings over memProbeRefNs.
	var passes []pass
	var speed []float64
	probe := memProbe()
	deadline := nanotime() + int64(seconds*1e9)
	for len(passes) < 3 || nanotime() < deadline {
		ps := runPass(w, false)
		res.checkPass(w, ps, ref)
		passes = append(passes, ps)
		next := memProbe()
		speed = append(speed, (probe+next)/2/memProbeRefNs)
		probe = next
		fmt.Fprintf(os.Stderr, "pass %d: %.0f pkt/s, %.1f cpu ns/pkt, memory probe %.1f ns\n", len(passes),
			rate(ps), float64(ps.cpuNs)/float64(ps.offered), speed[len(speed)-1]*memProbeRefNs)
	}
	fmt.Printf("passes %d digest %s\n", len(passes), ref)

	med := func(f func(pass) float64) float64 { return medianOver(passes, f) }
	rawRate, rawCPU := med(rate), med(func(p pass) float64 { return float64(p.cpuNs) / float64(p.offered) })
	fmt.Printf("uncorrected: pkts_per_s %.0f cpu_ns_per_pkt %.1f; memory probe median %.1f ns\n",
		rawRate, rawCPU, median(slices.Clone(speed))*memProbeRefNs)
	var rates, cpus []float64
	for i, ps := range passes {
		rates = append(rates, rate(ps)*speed[i])
		cpus = append(cpus, float64(ps.cpuNs)/float64(ps.offered)/speed[i])
	}
	capacity := float64(w.capacity())
	res.add("pkts_per_s", median(rates), "pkt/s")
	res.add("cpu_ns_per_pkt", median(cpus), "ns")
	res.add("setup_s", median(setups), "s")
	res.add("peak_rss_mb", float64(warm.rssPeak-warm.rssBase)/(1<<20), "MB")
	res.add("bytes_per_flow", med(func(p pass) float64 { return float64(p.setupHeap) / capacity }), "B")
	res.add("ok_share", 1-float64(res.failed)/float64(res.attempted), "ratio")
	res.add("alert_recall", acc.recall(), "ratio")
	res.add("alert_precision", acc.precision(), "ratio")
	return res, nil
}

// printAccuracy reports detection accuracy as found, with the falsely
// named addresses grouped by /24.
func printAccuracy(w *workload, acc accuracy) {
	fmt.Printf("accuracy %s: ground-truth attackers %d, named by the matching detector %d; distinct alerted addresses %d, in ground truth %d\n",
		w.name, acc.Truth, acc.Found, acc.Alerted, acc.Correct)
	for _, l := range acc.Labels {
		fmt.Printf("accuracy %s: %s detector names %d distinct addresses; %d of its %d ground-truth attackers among them\n",
			w.name, l.Label, l.Named, l.Found, l.Truth)
	}
	blocks := map[string]int{}
	var order []string
	for _, a := range acc.FalseAlerted {
		o1, o2, o3, _ := a.Octets()
		k := fmt.Sprintf("%d.%d.%d.0/24", o1, o2, o3)
		if blocks[k] == 0 {
			order = append(order, k)
		}
		blocks[k]++
	}
	for _, k := range order {
		fmt.Printf("accuracy %s: %d alerted addresses outside ground truth in %s\n", w.name, blocks[k], k)
	}
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// rate is a pass's packets per second of drive wall time.
func rate(ps pass) float64 { return float64(ps.offered) / (float64(ps.wallNs) / 1e9) }

// medianOver is the median of f over the passes.
func medianOver(passes []pass, f func(pass) float64) float64 {
	v := make([]float64, len(passes))
	for i, ps := range passes {
		v[i] = f(ps)
	}
	return median(v)
}

// quantile is the linear-interpolation quantile of v (sorted in place).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[lo]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}
