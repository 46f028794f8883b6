package main

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"time"
)

// op is one scheduled request of an open-loop phase: when it falls due,
// as an offset from the phase start, which stream it belongs to, and its
// position in that stream's input sequence.
type op struct {
	due    time.Duration
	stream int
	index  int
}

// errStop ends a closed-loop client without counting a request.
var errStop = errors.New("client has no more inputs")

// errWrong marks an answer that arrived but disagrees with the oracle. It
// counts as a failure like any other error, and also makes the run
// incorrect.
var errWrong = errors.New("wrong answer")

// phaseResult is what one timed phase measured.
type phaseResult struct {
	// lat holds the latency of every successful request, per stream, and
	// at when each was due (open loop) or finished (closed loop), as an
	// offset from the phase start.
	lat, at [][]time.Duration
	// attempted and failed count requests; wrong counts the failures that
	// were wrong answers.
	attempted, failed, wrong int64
	// lag is how late the dispatcher released each open-loop request
	// against its schedule. It measures the generator, not the server.
	lag []time.Duration
	// throughput is requests completed per second (closed loop only).
	throughput float64
}

func newPhaseResult(streams int) *phaseResult {
	return &phaseResult{lat: make([][]time.Duration, streams), at: make([][]time.Duration, streams)}
}

// record adds one finished request.
func (r *phaseResult) record(stream int, at, lat time.Duration, err error) {
	r.attempted++
	switch {
	case err == nil:
		r.lat[stream] = append(r.lat[stream], lat)
		r.at[stream] = append(r.at[stream], at)
	case errors.Is(err, errWrong):
		r.failed++
		r.wrong++
	default:
		r.failed++
	}
}

// merge folds o into r.
func (r *phaseResult) merge(o *phaseResult) {
	for s := range o.lat {
		r.lat[s] = append(r.lat[s], o.lat[s]...)
		r.at[s] = append(r.at[s], o.at[s]...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong += o.wrong
	r.lag = append(r.lag, o.lag...)
}

// schedule lays out an open-loop arrival sequence: for each stream, n
// requests at a fixed rate (per second) over dur, the first one offset by
// half an interval times the stream number so streams do not collide.
// The result is sorted by due time.
func schedule(dur time.Duration, rates ...float64) []op {
	var ops []op
	for s, rate := range rates {
		if rate <= 0 {
			continue
		}
		step := float64(time.Second) / rate
		n := int(dur.Seconds() * rate)
		for i := 0; i < n; i++ {
			due := time.Duration(step*float64(i) + step*float64(s)/2)
			ops = append(ops, op{due: due, stream: s, index: i})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// runOpenLoop sends ops at their due times over conns connections. A
// dispatcher releases each op into a queue when it falls due, whether or
// not the server kept up; conns workers take ops from the queue. An op
// that waits for a free connection is therefore late, and its latency,
// measured from its due time, includes the wait: a stall counts against
// every request queued behind it. The phase ends when every op has
// finished or ctx is done; ops still queued then count as failed.
func runOpenLoop(ctx context.Context, ops []op, conns, streams int, do func(context.Context, op) error) *phaseResult {
	queue := make(chan op, len(ops)) // sized to the number of sends: the dispatcher never blocks
	results := make([]*phaseResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		res := newPhaseResult(streams)
		results[c] = res
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range queue {
				if ctx.Err() != nil {
					res.record(o.stream, o.due, 0, ctx.Err())
					continue
				}
				err := do(ctx, o)
				res.record(o.stream, o.due, time.Since(start)-o.due, err)
			}
		}()
	}
	lag := make([]time.Duration, 0, len(ops))
	for _, o := range ops {
		if wait := o.due - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		lag = append(lag, max(0, time.Since(start)-o.due))
		queue <- o
	}
	close(queue)
	wg.Wait()
	out := newPhaseResult(streams)
	for _, r := range results {
		out.merge(r)
	}
	out.lag = lag
	return out
}

// runClosedLoop runs clients loops back to back for dur: client c sends
// its k-th request with do(ctx, c, k), which reports the stream the
// request belonged to, and starts the next one as soon as it returns. No
// request starts after dur. Throughput is summed over clients, each
// client's completed requests divided by the time its last one finished,
// so a request cut by the end of the phase is never counted in part. The
// lag of a closed loop is the generator's own turnaround: the time from
// one request's return to the next one's start.
func runClosedLoop(ctx context.Context, clients, streams int, dur time.Duration, do func(ctx context.Context, client, k int) (int, error)) *phaseResult {
	results := make([]*phaseResult, clients)
	rates := make([]float64, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		res := newPhaseResult(streams)
		results[c] = res
		wg.Add(1)
		go func() {
			defer wg.Done()
			var done int
			var last time.Duration
			for k := 0; time.Since(start) < dur && ctx.Err() == nil; k++ {
				t0 := time.Now()
				if k > 0 {
					res.lag = append(res.lag, t0.Sub(start)-last)
				}
				stream, err := do(ctx, c, k)
				if errors.Is(err, errStop) {
					break
				}
				last = time.Since(start)
				res.record(stream, last, time.Since(t0), err)
				if err == nil {
					done++
				}
			}
			if last > 0 {
				rates[c] = float64(done) / last.Seconds()
			}
		}()
	}
	wg.Wait()
	out := newPhaseResult(streams)
	for c, r := range results {
		out.merge(r)
		out.throughput += rates[c]
	}
	return out
}

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method: the smallest value with at least p percent of the
// sample at or below it. It returns NaN for an empty sample and leaves
// xs unchanged.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// windowRate returns the requests completed per second over the phase,
// as the mean over its whole windows after the fastest and the slowest
// quarter of the windows are dropped, or NaN when the phase has fewer
// than four whole windows.
func windowRate(r *phaseResult, dur, window time.Duration) float64 {
	n := int(dur / window)
	if n < 4 {
		return math.NaN()
	}
	rates := make([]float64, n)
	for _, at := range r.at {
		for _, t := range at {
			if w := int(t / window); w < n {
				rates[w] += 1 / window.Seconds()
			}
		}
	}
	sort.Float64s(rates)
	var sum float64
	mid := rates[n/4 : n-n/4]
	for _, v := range mid {
		sum += v
	}
	return sum / float64(len(mid))
}

// mean is the arithmetic mean of xs, NaN for an empty sample.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
