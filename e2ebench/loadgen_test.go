package main

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(p%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of an empty sample = %v, want NaN", got)
	}
	if got := median([]float64{3}); got != 3 {
		t.Errorf("median of one value = %v", got)
	}
}

func TestScheduleFixedRateAndOrder(t *testing.T) {
	ops := schedule(time.Second, 10, 10, 2)
	if len(ops) != 22 {
		t.Fatalf("%d ops, want 22", len(ops))
	}
	per := map[int]int{}
	for i, o := range ops {
		per[o.stream]++
		if i > 0 && o.due < ops[i-1].due {
			t.Fatalf("op %d due %v before op %d due %v", i, o.due, i-1, ops[i-1].due)
		}
	}
	if per[0] != 10 || per[1] != 10 || per[2] != 2 {
		t.Errorf("ops per stream %v, want 10, 10, 2", per)
	}
	// Two streams at the same rate interleave: the second is offset by
	// half an interval.
	if ops[0].stream != 0 || ops[1].stream != 1 || ops[1].due != 50*time.Millisecond {
		t.Errorf("first ops %+v %+v, want stream 0 at 0 then stream 1 at 50ms", ops[0], ops[1])
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One connection, each request takes 20ms, all due at once: the
	// third one waits for two others, so its latency, measured from its
	// due time, is about 60ms, not 20ms.
	ops := []op{{0, 0, 0}, {0, 0, 1}, {0, 0, 2}}
	res := runOpenLoop(context.Background(), ops, 1, 1, func(context.Context, op) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	if res.attempted != 3 || res.failed != 0 {
		t.Fatalf("attempted %d failed %d", res.attempted, res.failed)
	}
	last := res.lat[0][2]
	if last < 55*time.Millisecond {
		t.Errorf("third request latency %v, want at least 55ms (queued behind two)", last)
	}
	for _, l := range res.lag {
		if l > 10*time.Millisecond {
			t.Errorf("generator lag %v: the dispatcher must not wait for busy connections", l)
		}
	}
}

func TestOpenLoopSendsOnSchedule(t *testing.T) {
	ops := schedule(200*time.Millisecond, 50)
	start := time.Now()
	var mu sync.Mutex
	var sent []time.Duration
	res := runOpenLoop(context.Background(), ops, 2, 1, func(context.Context, op) error {
		mu.Lock()
		sent = append(sent, time.Since(start))
		mu.Unlock()
		return nil
	})
	if len(sent) != 10 || res.attempted != 10 {
		t.Fatalf("sent %d, attempted %d, want 10", len(sent), res.attempted)
	}
	if first, last := sent[0], sent[len(sent)-1]; first > 15*time.Millisecond || last < 170*time.Millisecond {
		t.Errorf("sends span %v..%v, want about 0..180ms", first, last)
	}
}

func TestOpenLoopCountsFailuresAndWrongAnswers(t *testing.T) {
	ops := schedule(100*time.Millisecond, 30)
	var n atomic.Int64
	res := runOpenLoop(context.Background(), ops, 2, 1, func(context.Context, op) error {
		switch n.Add(1) {
		case 1:
			return errors.New("refused")
		case 2:
			return errWrong
		}
		return nil
	})
	if res.attempted != 3 || res.failed != 2 || res.wrong != 1 || len(res.lat[0]) != 1 {
		t.Errorf("attempted %d failed %d wrong %d ok %d, want 3 2 1 1", res.attempted, res.failed, res.wrong, len(res.lat[0]))
	}
}

func TestClosedLoopThroughput(t *testing.T) {
	// Two clients, 10ms per request, 200ms: about 200 requests per second,
	// and no request starts after the phase ends.
	res := runClosedLoop(context.Background(), 2, 1, 200*time.Millisecond, func(context.Context, int, int) (int, error) {
		time.Sleep(10 * time.Millisecond)
		return 0, nil
	})
	if res.throughput < 70 || res.throughput > 210 {
		t.Errorf("throughput %.1f/s, want about 200/s", res.throughput)
	}
	if n := len(res.lat[0]); n < 20 || n > 42 {
		t.Errorf("%d requests, want about 40", n)
	}
	if len(res.lag) != len(res.lat[0])-2 {
		t.Errorf("%d lag samples for %d requests of two clients", len(res.lag), len(res.lat[0]))
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP shapleyd_plan_cache_hits_total Plan-cache lookups answered from cache.
# TYPE shapleyd_plan_cache_hits_total counter
shapleyd_plan_cache_hits_total 12
shapleyd_coalesced_requests_total{kind="window"} 3
shapleyd_requests_total{route="POST /v1/databases/{id}/shapley",status="200"} 7
shapleyd_uptime_seconds 1.500

shapleyd_request_duration_seconds_bucket{route="GET /metrics",le="+Inf"} 2
`
	s, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := series{
		"shapleyd_plan_cache_hits_total":                                                12,
		`shapleyd_coalesced_requests_total{kind="window"}`:                              3,
		`shapleyd_requests_total{route="POST /v1/databases/{id}/shapley",status="200"}`: 7,
		"shapleyd_uptime_seconds":                                                       1.5,
		`shapleyd_request_duration_seconds_bucket{route="GET /metrics",le="+Inf"}`:      2,
	}
	if len(s) != len(want) {
		t.Errorf("parsed %d series, want %d: %v", len(s), len(want), s)
	}
	for k, v := range want {
		if s[k] != v {
			t.Errorf("%s = %v, want %v", k, s[k], v)
		}
	}
	before := series{"shapleyd_plan_cache_hits_total": 10}
	if d := s.delta(before); d["shapleyd_plan_cache_hits_total"] != 2 || d["shapleyd_uptime_seconds"] != 1.5 {
		t.Errorf("delta %v", d)
	}
	if _, err := parseMetrics(strings.NewReader("shapleyd_x notanumber\n")); err == nil {
		t.Error("a malformed value parsed")
	}
}

func TestSelfTimeAndPerCall(t *testing.T) {
	root := &spanJSON{Name: "request", DurationNS: 1000, Children: []*spanJSON{
		{Name: "plan.lookup", DurationNS: 100},
		{Name: "shapley.single", DurationNS: 800, Children: []*spanJSON{
			{Name: "tree.toggle", DurationNS: 600, Count: 3},
			{Name: "weight", DurationNS: 100},
		}},
	}}
	if got := selfTime(root); got != 100 {
		t.Errorf("request self time %v, want 100ns", got)
	}
	if got := perCall([]*spanJSON{root}, "tree.toggle", time.Nanosecond); len(got) != 1 || got[0] != 200 {
		t.Errorf("tree.toggle per call %v, want [200]", got)
	}
	if got := perCall([]*spanJSON{root}, "shapley.single", time.Nanosecond); len(got) != 1 || got[0] != 100 {
		t.Errorf("shapley.single self time %v, want [100]", got)
	}
}

func TestWindowRateTrimsOutliers(t *testing.T) {
	// Eight half-second windows: six with 100 completions, one stalled
	// window with 0 and one burst with 400. The trimmed mean drops both.
	r := newPhaseResult(1)
	for w := 0; w < 8; w++ {
		n := 100
		switch w {
		case 2:
			n = 0
		case 5:
			n = 400
		}
		for i := 0; i < n; i++ {
			r.record(0, time.Duration(w)*500*time.Millisecond+time.Millisecond, time.Millisecond, nil)
		}
	}
	if got := windowRate(r, 4*time.Second, 500*time.Millisecond); got != 200 {
		t.Errorf("windowRate = %v, want 200/s", got)
	}
	if got := windowRate(r, time.Second, 500*time.Millisecond); !math.IsNaN(got) {
		t.Errorf("windowRate over two windows = %v, want NaN", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}
