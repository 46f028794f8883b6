package cluster

import (
	"fmt"
	"testing"
)

func TestRingOwnersBasics(t *testing.T) {
	r, err := NewRing([]string{"w1", "w2", "w3"}, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Replication(); got != 2 {
		t.Fatalf("replication = %d, want 2", got)
	}
	for _, key := range []string{"uni", "db-1", "db-2", "x"} {
		owners := r.Owners(key)
		if len(owners) != 2 {
			t.Fatalf("Owners(%q) = %v, want 2 distinct owners", key, owners)
		}
		if owners[0] == owners[1] {
			t.Fatalf("Owners(%q) = %v has a duplicate", key, owners)
		}
		if !r.Owns(key, owners[0]) || r.Owns(key, "w-not-there") {
			t.Fatalf("Owns disagrees with Owners for %q", key)
		}
	}
}

// Placement must be a pure function of the membership set: worker list
// order, which differs between a config file and a flag, must not matter.
func TestRingPlacementIgnoresInputOrder(t *testing.T) {
	a, err := NewRing([]string{"w1", "w2", "w3"}, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"w3", "w1", "w2"}, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("db-%d", i)
		ao, bo := a.Owners(key), b.Owners(key)
		if len(ao) != len(bo) {
			t.Fatalf("Owners(%q): %v vs %v", key, ao, bo)
		}
		for j := range ao {
			if ao[j] != bo[j] {
				t.Fatalf("Owners(%q): %v vs %v", key, ao, bo)
			}
		}
	}
}

// Removing one worker must move only the keys that worker owned: every
// key whose primary survives keeps that primary (consistent hashing's
// defining property — a modulo scheme would reshuffle nearly all keys).
func TestRingRebalanceMinimalMovement(t *testing.T) {
	workers := []string{"w1", "w2", "w3", "w4", "w5"}
	before, err := NewRing(workers, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	after, err := NewRing(workers[:4], 64, 2) // w5 leaves
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	movedPrimary := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("db-%d", i)
		bo, ao := before.Owners(key), after.Owners(key)
		if bo[0] == "w5" {
			movedPrimary++
			continue
		}
		if ao[0] != bo[0] {
			t.Fatalf("key %q: primary moved %s -> %s though w5 did not own it", key, bo[0], ao[0])
		}
	}
	// w5 owned ~1/5 of primaries; allow generous slack but fail on the
	// near-total reshuffle a broken scheme would produce.
	if movedPrimary == 0 || movedPrimary > n/2 {
		t.Fatalf("%d/%d primaries moved; want roughly n/5", movedPrimary, n)
	}
}

func TestRingLoadSpread(t *testing.T) {
	// 512 virtual nodes per worker: enough that no worker's share of the
	// keyspace collapses (at 4 workers the shares land near 25% each; the
	// bound only rejects gross skew, which few-vnode rings do exhibit).
	r, err := NewRing([]string{"w1", "w2", "w3", "w4"}, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		counts[r.Owners(fmt.Sprintf("db-%d", i))[0]]++
	}
	for w, c := range counts {
		if c < n/10 {
			t.Fatalf("worker %s owns %d/%d keys: load badly skewed (%v)", w, c, n, counts)
		}
	}
	if len(counts) != 4 {
		t.Fatalf("only %d workers received keys: %v", len(counts), counts)
	}
}

func TestRingClampsAndErrors(t *testing.T) {
	if _, err := NewRing(nil, 4, 1); err == nil {
		t.Fatal("empty worker list accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 4, 1); err == nil {
		t.Fatal("duplicate worker accepted")
	}
	if _, err := NewRing([]string{""}, 4, 1); err == nil {
		t.Fatal("empty worker name accepted")
	}
	r, err := NewRing([]string{"a", "b"}, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	if r.Replication() != 2 {
		t.Fatalf("replication clamped to %d, want 2", r.Replication())
	}
}

func TestConfigValidateAndDefaults(t *testing.T) {
	c, err := ParseConfig([]byte(`{"workers":[{"name":"w1","url":"http://h:1"},{"name":"w2","url":"http://h:2"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Replication != DefaultReplication || c.VirtualNodes != DefaultVirtualNodes {
		t.Fatalf("defaults not filled: %+v", c)
	}
	bad := []string{
		`{}`,
		`{"workers":[{"name":"","url":"http://h:1"}]}`,
		`{"workers":[{"name":"a","url":"h:1"}]}`,
		`{"workers":[{"name":"a","url":"http://h:1"},{"name":"a","url":"http://h:2"}]}`,
		`{"workers":[{"name":"a","url":"http://h:1"}],"replication":-1}`,
	}
	for _, s := range bad {
		if _, err := ParseConfig([]byte(s)); err == nil {
			t.Fatalf("config %s accepted", s)
		}
	}
}

func TestParseWorkerList(t *testing.T) {
	ws, err := ParseWorkerList("w1=http://h:1, w2=http://h:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 || ws[0].Name != "w1" || ws[1].URL != "http://h:2" {
		t.Fatalf("parsed %+v", ws)
	}
	for _, s := range []string{"", "w1", "=http://h:1", "w1="} {
		if _, err := ParseWorkerList(s); err == nil {
			t.Fatalf("worker list %q accepted", s)
		}
	}
}

func TestSplitRanges(t *testing.T) {
	for _, tc := range []struct {
		n, replicas int
		want        []factRange
	}{
		{8, 2, []factRange{{0, 4, 0}, {4, 4, 1}}},
		{7, 3, []factRange{{0, 3, 0}, {3, 2, 1}, {5, 2, 2}}},
		{2, 5, []factRange{{0, 1, 0}, {1, 1, 1}}},
	} {
		got := splitRanges(tc.n, tc.replicas)
		if len(got) != len(tc.want) {
			t.Fatalf("splitRanges(%d,%d) = %v, want %v", tc.n, tc.replicas, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("splitRanges(%d,%d) = %v, want %v", tc.n, tc.replicas, got, tc.want)
			}
		}
	}
}
