package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// series maps a sample's series name, labels included exactly as the
// exposition prints them (`shapleyd_coalesced_requests_total{kind="window"}`),
// to its value.
type series map[string]float64

// parseMetrics reads the Prometheus text exposition that shapleyd serves
// on /metrics. Comment lines are skipped; a sample line is the series,
// one space, and the value.
func parseMetrics(r io.Reader) (series, error) {
	out := series{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Label values may hold spaces, so split at the last space.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read metrics: %w", err)
	}
	return out, nil
}

// delta returns after minus before for every series of after.
func (after series) delta(before series) series {
	out := make(series, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// add sums o into s, series by series.
func (s series) add(o series) {
	for k, v := range o {
		s[k] += v
	}
}
