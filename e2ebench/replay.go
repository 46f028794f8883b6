package main

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/query"
)

// replay checks every evolving read against the seeded delta chain,
// replayed in process: a q1 plan (evolving reads q1 only) is prepared
// over the initial database, the PATCHes are applied in the order of the
// versions the server reported for them, and each read is compared with
// the exact value at the version it was answered for. It returns how many
// reads it checked and how many were wrong; a read at a version the
// replay cannot reach counts as wrong.
func (r *run) replay(ctx context.Context) (checked, wrong int64, err error) {
	plan, err := engineFor(0).Prepare(ctx, r.d, query.MustParse(q1Text))
	if err != nil {
		return 0, 0, fmt.Errorf("replay: prepare q1: %w", err)
	}
	byVersion := map[int64][]versionedRead{}
	for _, v := range r.seen {
		byVersion[v.version] = append(byVersion[v.version], v)
	}
	checked = int64(len(r.seen))
	cur := int64(1)
	for _, v := range slices.Sorted(maps.Keys(byVersion)) {
		for cur < v {
			k, ok := r.applied[cur+1]
			if !ok {
				warnf("replay: no PATCH answered with version %d", cur+1)
				for u, reads := range byVersion {
					if u >= v {
						wrong += int64(len(reads))
					}
				}
				return checked, wrong, nil
			}
			if _, err := plan.Apply(ctx, r.chain[k].delta); err != nil {
				return 0, 0, fmt.Errorf("replay: apply version %d: %w", cur+1, err)
			}
			cur++
		}
		n, err := checkAt(ctx, plan, byVersion[v])
		if err != nil {
			return 0, 0, err
		}
		wrong += n
	}
	return checked, wrong, nil
}

// checkAt compares reads, all answered at the plan's current version,
// with the plan's exact values and returns the number that differ.
func checkAt(ctx context.Context, plan *core.Plan, reads []versionedRead) (int64, error) {
	idx := map[string]int{}
	var facts []db.Fact
	for _, rd := range reads {
		if _, ok := idx[rd.fact]; !ok {
			f, err := db.ParseFact(rd.fact)
			if err != nil {
				return 0, fmt.Errorf("replay: %w", err)
			}
			idx[rd.fact] = len(facts)
			facts = append(facts, f)
		}
	}
	vals, err := plan.View().ShapleySubset(ctx, facts, core.BatchOptions{})
	if err != nil {
		return 0, fmt.Errorf("replay: %w", err)
	}
	var wrong int64
	for _, rd := range reads {
		if want := vals[idx[rd.fact]].Value.RatString(); rd.value != want {
			warnf("replay: %s = %s at version %d, want %s", rd.fact, rd.value, rd.version, want)
			wrong++
		}
	}
	return wrong, nil
}
