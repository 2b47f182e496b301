package core

import (
	"fmt"
	"testing"

	"smartwatch/internal/tier"
)

// TestBatchedDriveMatchesPerPacket: at Shards=4 every BatchSize must
// reproduce the golden digests recorded from the per-packet drive —
// report, alert sequence and flow log — on the full platform (switch +
// detectors + intervals) and on the standalone one. The stream length
// (~800k packets) divides none of the batch sizes, so every run
// exercises an odd tail.
func TestBatchedDriveMatchesPerPacket(t *testing.T) {
	if testing.Short() {
		t.Skip("full-platform sweep; covered per-component in -short runs")
	}
	rep := checkGolden(t, "mixed/switch/shards4", goldenBatches...)
	// The trace must actually exercise the mid-batch control-feedback
	// hazard: detector blacklists rewrite switch tables between two
	// packets that can share a vector. Otherwise this test would pass
	// even with an (incorrect) pre-steering batch drive.
	if rep.Events.PublishedFor(tier.KindBlacklist) == 0 {
		t.Fatal("workload published no blacklist events; hazard not exercised, goldens vacuous")
	}
	if rep.Counts.DroppedAtSwitch == 0 {
		t.Fatal("no switch drops; blacklist feedback not observable")
	}
	checkGolden(t, "mixed/noswitch/shards4", goldenBatches...)
}

// TestBatchedDriveMatchesLegacyOracle pins the vectored drive at Shards=1
// against the golden digest recorded from the pre-tier monolithic wiring
// — the strongest oracle in the repo. (BatchSize 1 is
// TestTierPipelineMatchesLegacy.)
func TestBatchedDriveMatchesLegacyOracle(t *testing.T) {
	checkGolden(t, "mixed/switch/shards1", 7, 64, 256)
}

// TestBatchedDriveNoSwitch covers the ingest-only wire pipeline, where
// the whole vector runs through tier.Pipeline.ProcessBatch.
func TestBatchedDriveNoSwitch(t *testing.T) {
	checkGolden(t, "mixed/noswitch/shards1", 7, 64, 256)
}

// TestBatchedDriveOddTail drives stream lengths around the batch size so
// the final vector is short, exactly full, and one over — the classic
// tail off-by-ones — on a timer-heavy config (interval = 1/20 of the
// trace) so sub-batch splitting hits the tail too.
func TestBatchedDriveOddTail(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000} {
		name := fmt.Sprintf("tail/%d", n)
		rep := checkGolden(t, name, goldenBatches...)
		if rep.Counts.Total != uint64(n) {
			t.Fatalf("%s: drive saw %d packets", name, rep.Counts.Total)
		}
	}
}

// TestBatchSizeOneIsPerPacketDrive: BatchSize ∈ {0, 1} normalises to 1,
// so the drive runs on one-packet vectors.
func TestBatchSizeOneIsPerPacketDrive(t *testing.T) {
	for _, b := range []int{0, 1} {
		cfg := fullConfig(1)
		cfg.BatchSize = b
		pl := New(cfg)
		if pl.cfg.BatchSize != 1 {
			t.Errorf("BatchSize=%d normalised to %d, want 1", b, pl.cfg.BatchSize)
		}
	}
}
