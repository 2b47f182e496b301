package core

import (
	"testing"

	"smartwatch/internal/packet"
)

// topkPlatform builds a switch-enabled platform whose FlowCache holds one
// flow per (weight, index) pair: flow i receives weights[i] packets.
func topkPlatform(t *testing.T, weights []int) (*Platform, []packet.FlowKey) {
	t.Helper()
	pl := New(Config{EnableSwitch: true, Queries: sshQueries()})
	keys := make([]packet.FlowKey, len(weights))
	for i, w := range weights {
		tuple := packet.FiveTuple{
			SrcIP: packet.Addr(1000 + i), DstIP: 42,
			SrcPort: uint16(7000 + i), DstPort: 80, Proto: packet.ProtoTCP,
		}
		keys[i] = tuple.Canonical()
		if w < 1 {
			t.Fatalf("weights must be >= 1, got %d", w)
		}
		for j := 0; j < w; j++ {
			p := packet.Packet{Ts: int64(j), Tuple: tuple, Size: 64}
			insertRecord(pl, &p)
		}
	}
	return pl, keys
}

// whitelisted reports whether the switch holds an exact-match whitelist
// entry for the key, observed through the WhitelistHits counter.
func whitelisted(pl *Platform, k packet.FlowKey) bool {
	before := pl.Switch().Stats().WhitelistHits
	p := packet.Packet{Tuple: k.Tuple(), Size: 64}
	pl.Switch().Process(&p)
	return pl.Switch().Stats().WhitelistHits > before
}

func TestWhitelistTopKExceedsCandidates(t *testing.T) {
	pl, keys := topkPlatform(t, []int{3, 1, 2})
	if n := pl.WhitelistTopK(10, nil); n != 3 {
		t.Fatalf("k beyond population: installed %d, want all 3", n)
	}
	for i, k := range keys {
		if !whitelisted(pl, k) {
			t.Errorf("flow %d missing from whitelist", i)
		}
	}
}

func TestWhitelistTopKSelectsHeaviest(t *testing.T) {
	weights := []int{5, 1, 9, 2, 7, 3, 8}
	pl, keys := topkPlatform(t, weights)
	if n := pl.WhitelistTopK(3, nil); n != 3 {
		t.Fatalf("installed %d, want 3", n)
	}
	wantIdx := map[int]bool{2: true, 6: true, 4: true} // weights 9, 8, 7
	for i, k := range keys {
		if got := whitelisted(pl, k); got != wantIdx[i] {
			t.Errorf("flow %d (weight %d): whitelisted=%v, want %v", i, weights[i], got, wantIdx[i])
		}
	}
}

func TestWhitelistTopKTies(t *testing.T) {
	// Five flows share the top weight; k=3 must install exactly 3 of them,
	// and the choice must be deterministic across identically built caches.
	weights := []int{4, 4, 4, 4, 4, 1, 1}
	pick := func() map[packet.FlowKey]bool {
		pl, keys := topkPlatform(t, weights)
		if n := pl.WhitelistTopK(3, nil); n != 3 {
			t.Fatalf("installed %d, want 3", n)
		}
		got := map[packet.FlowKey]bool{}
		for i, k := range keys {
			if whitelisted(pl, k) {
				if weights[i] != 4 {
					t.Errorf("light flow %d (weight %d) beat a tied heavy flow", i, weights[i])
				}
				got[k] = true
			}
		}
		return got
	}
	first := pick()
	second := pick()
	if len(first) != 3 {
		t.Fatalf("whitelisted %d flows, want 3", len(first))
	}
	for k := range first {
		if !second[k] {
			t.Errorf("tie-break not deterministic: %v selected in run 1 only", k)
		}
	}
}

func TestWhitelistTopKMaliciousFilter(t *testing.T) {
	weights := []int{10, 9, 8, 1}
	pl, keys := topkPlatform(t, weights)
	bad := keys[0] // the heaviest flow is flagged
	n := pl.WhitelistTopK(2, func(k packet.FlowKey) bool { return k == bad })
	if n != 2 {
		t.Fatalf("installed %d, want 2", n)
	}
	if whitelisted(pl, bad) {
		t.Error("malicious flow must never be whitelisted")
	}
	for _, i := range []int{1, 2} {
		if !whitelisted(pl, keys[i]) {
			t.Errorf("flow %d should fill the malicious flow's slot", i)
		}
	}
}

func TestWhitelistTopKNoSwitchOrZeroK(t *testing.T) {
	pl, _ := topkPlatform(t, []int{2, 1})
	if n := pl.WhitelistTopK(0, nil); n != 0 {
		t.Errorf("k=0 installed %d", n)
	}
	standalone := New(Config{})
	if n := standalone.WhitelistTopK(5, nil); n != 0 {
		t.Errorf("switchless platform installed %d", n)
	}
}
