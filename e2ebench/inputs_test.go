package main

import (
	"testing"

	"repro/internal/workload"
)

func TestUploadsHaveOwnFactsAndOneShape(t *testing.T) {
	base := workload.University(universityConfig(readDBSeed))
	a, b := uploadDB(base, 1), uploadDB(base, 2)
	for _, d := range []struct {
		name    string
		n, endo int
	}{{"a", a.NumFacts(), a.NumEndo()}, {"b", b.NumFacts(), b.NumEndo()}} {
		if d.n != base.NumFacts() || d.endo != base.NumEndo() {
			t.Errorf("upload %s has %d facts (%d endogenous), want %d (%d)", d.name, d.n, d.endo, base.NumFacts(), base.NumEndo())
		}
	}
	for _, f := range a.Facts() {
		if b.Contains(f) {
			t.Fatalf("two uploads share the fact %s", f)
		}
	}
}
