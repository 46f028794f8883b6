package cluster_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/paperex"
	"repro/internal/server"
)

// TestSnapshotWireCorruption: malformed bodies fail to decode, and a body
// in the old version-1 format is refused with 400 bad_snapshot by a
// worker and by the router alike.
func TestSnapshotWireCorruption(t *testing.T) {
	s := &cluster.Snapshot{ID: "uni", Version: 3, DBText: "endo R(a)\n"}
	data := cluster.EncodeSnapshot(s)
	if _, err := cluster.DecodeSnapshot(data); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if _, err := cluster.DecodeSnapshot(nil); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	if _, err := cluster.DecodeSnapshot(data[:len(data)-1]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if _, err := cluster.DecodeSnapshot(append(bytes.Clone(data), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	flipped := bytes.Clone(data)
	flipped[0] ^= 0xff
	if _, err := cluster.DecodeSnapshot(flipped); err == nil {
		t.Fatal("bad magic accepted")
	}

	// Without plans, a version-1 body differs from a version-2 body only
	// in the magic's last byte, so only the magic tells them apart.
	v1 := bytes.Clone(data)
	magic := []byte("shsnap\x00\x02")
	if !bytes.HasPrefix(v1, magic) {
		t.Fatalf("snapshot body does not start with %q", magic)
	}
	v1[len(magic)-1] = 1
	if _, err := cluster.DecodeSnapshot(v1); err == nil {
		t.Fatal("version-1 snapshot accepted")
	}
	tc := newCluster(t, 2, 2, time.Millisecond, -1)
	for name, h := range map[string]http.Handler{
		"worker": server.New(server.Options{}),
		"router": tc.rt,
	} {
		rec := doRaw(t, h, "PUT", "/v1/databases/uni/snapshot", v1, nil)
		var body struct {
			Kind string `json:"kind"`
		}
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &body) != nil || body.Kind != "bad_snapshot" {
			t.Fatalf("%s PUT of a version-1 snapshot: %d %s, want 400 bad_snapshot", name, rec.Code, rec.Body.String())
		}
	}
}

// FuzzDecodeSnapshot: decoding never panics, allocates at most a small
// multiple of its input, and whatever decodes survives an
// EncodeSnapshot/DecodeSnapshot round trip unchanged.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, s := range []*cluster.Snapshot{
		{ID: "uni", Version: 3, DBText: "endo R(a)\n"},
		{ID: "uni", Version: 2, DBText: paperex.UniversityDBText, Plans: []cluster.PlanKey{
			{Query: uniQ1},
			{Query: "q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, CS)", Exo: []string{"Course", "Stud"}},
			{Query: uniQ1, Brute: true},
		}},
	} {
		data := cluster.EncodeSnapshot(s)
		got, err := cluster.DecodeSnapshot(data)
		if err != nil || !reflect.DeepEqual(got, s) {
			f.Fatalf("seed round trip: %+v, %v; want %+v", got, err, s)
		}
		f.Add(data)
	}
	// The densest body a decoder must size: many plan keys of minimal
	// length, and a plan count far past the input.
	head := cluster.EncodeSnapshot(&cluster.Snapshot{ID: "uni", Version: 1})
	head = head[:len(head)-1]
	f.Add(append(binary.AppendUvarint(bytes.Clone(head), 1000), bytes.Repeat([]byte{0, 0, 0}, 1000)...))
	f.Add(binary.AppendUvarint(bytes.Clone(head), 1<<40))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Other goroutines of the test binary may allocate during one
		// measurement, so only an overrun that repeats fails.
		bound := 32*uint64(len(data)) + 4096
		for try := 1; ; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _ = cluster.DecodeSnapshot(data)
			runtime.ReadMemStats(&after)
			alloc := after.TotalAlloc - before.TotalAlloc
			if alloc <= bound {
				break
			}
			if try == 3 {
				t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(data), alloc, bound)
			}
		}
		s, err := cluster.DecodeSnapshot(data)
		if err != nil {
			return
		}
		again, err := cluster.DecodeSnapshot(cluster.EncodeSnapshot(s))
		if err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("round trip: %+v, %v; want %+v", again, err, s)
		}
	})
}
