package core

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/trace"
)

// goldenBatches are the vector widths every golden scenario is replayed
// at: 1-wide vectors (the default), a width that divides nothing, the
// production width, and a width larger than most interval sub-batches.
var goldenBatches = []int{1, 7, 64, 256}

// goldenScenario is one fixed drive whose observable output is frozen in
// testdata/drive_golden.txt.
type goldenScenario struct {
	cfg    func() Config // fresh per run: detectors are stateful
	stream func() packet.Stream
}

// tailStream is the odd-tail workload: the first n packets of a small
// Zipf trace, so the final vector is short, exactly full or one over.
func tailStream(n int) func() packet.Stream {
	return func() packet.Stream {
		w := trace.NewWorkload(trace.WorkloadConfig{Seed: 7, Flows: 50, PacketRate: 1e6, Duration: 1e9})
		return packet.Limit(w.Stream(), int64(n))
	}
}

// goldenScenarios is the frozen matrix: the mixed SSH workload with the
// switch on and off at one and four shards, the odd-tail lengths on a
// timer-heavy config, and the timing-wheel low-and-slow config.
func goldenScenarios() map[string]goldenScenario {
	m := map[string]goldenScenario{}
	for _, sh := range []int{1, 4} {
		m[fmt.Sprintf("mixed/switch/shards%d", sh)] = goldenScenario{
			cfg:    func() Config { return fullConfig(sh) },
			stream: mixedStream,
		}
		m[fmt.Sprintf("mixed/noswitch/shards%d", sh)] = goldenScenario{
			cfg:    func() Config { return Config{IntervalNs: 20e6, Detectors: detectorSet(), Shards: sh} },
			stream: mixedStream,
		}
		m[fmt.Sprintf("lowslow/shards%d", sh)] = goldenScenario{
			cfg:    func() Config { return Config{IntervalNs: 20e6, Shards: sh, Detectors: lowslowDetectors()} },
			stream: lowslowStream,
		}
	}
	for _, n := range []int{1, 63, 64, 65, 1000} {
		m[fmt.Sprintf("tail/%d", n)] = goldenScenario{
			cfg:    func() Config { return Config{IntervalNs: 50e6, Detectors: detectorSet()} },
			stream: tailStream(n),
		}
	}
	return m
}

// loadGolden parses testdata/drive_golden.txt ("<scenario> <sha256>" per
// line, '#' comments).
func loadGolden() (map[string]string, error) {
	f, err := os.Open("testdata/drive_golden.txt")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	golden := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("malformed golden line %q", line)
		}
		golden[name] = sum
	}
	return golden, sc.Err()
}

// checkGolden replays scenario name at each batch width and fails on any
// digest that differs from the frozen one. It returns the report of the
// first replay so callers can assert the scenario is not vacuous.
func checkGolden(t *testing.T, name string, batches ...int) Report {
	t.Helper()
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	want, ok := golden[name]
	if !ok {
		t.Fatalf("no golden digest for %q", name)
	}
	s, ok := goldenScenarios()[name]
	if !ok {
		t.Fatalf("unknown golden scenario %q", name)
	}
	var first Report
	for i, b := range batches {
		cfg := s.cfg()
		cfg.BatchSize = b
		pl := New(cfg)
		rep := pl.Run(s.stream())
		if i == 0 {
			first = rep
		}
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(canonicalDump(pl, rep)+kvDump(pl))))
		if got != want {
			t.Errorf("%s batch=%d: digest %s, golden %s", name, b, got, want)
		}
	}
	return first
}

// TestDriveGoldenMatrix keeps testdata/drive_golden.txt and the scenario
// matrix in step: every scenario has a digest and every digest a
// scenario. The replays themselves live in the tests named after the
// oracle each slice of the matrix replaced.
func TestDriveGoldenMatrix(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	scs := goldenScenarios()
	for name := range scs {
		if _, ok := golden[name]; !ok {
			t.Errorf("scenario %q has no golden digest", name)
		}
	}
	for name := range golden {
		if _, ok := scs[name]; !ok {
			t.Errorf("golden digest %q has no scenario", name)
		}
	}
}
