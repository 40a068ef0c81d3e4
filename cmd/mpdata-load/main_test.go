package main

import (
	"math/rand"
	"testing"
	"time"
)

// TestPctNearestRank pins pct to the nearest-rank percentile: of n latencies
// 1..n ms in any order, the q-th percentile is the ceil(n*q/100)-th smallest.
func TestPctNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n, q int
		want time.Duration
	}{
		{1, 50, 1}, {1, 99, 1}, {1, 100, 1},
		{3, 50, 2}, {3, 99, 3}, {3, 100, 3},
		{10, 50, 5}, {10, 99, 10}, {10, 100, 10},
		{50, 50, 25}, {50, 99, 50}, {50, 100, 50},
	} {
		ds := make([]time.Duration, tc.n)
		for i := range ds {
			ds[i] = time.Duration(i+1) * time.Millisecond
		}
		rand.New(rand.NewSource(int64(tc.n))).Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
		if got, want := pct(ds, tc.q), tc.want*time.Millisecond; got != want {
			t.Errorf("pct of %d latencies at q=%d: %v, want %v", tc.n, tc.q, got, want)
		}
	}
}
