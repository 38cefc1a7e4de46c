package main

import "testing"

func TestPercentileNearestRankWithCount(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200, 199, ..., 1: input order must not matter
	}
	cases := []struct {
		q      float64
		value  float64
		beyond int
	}{
		{0.50, 100, 100},
		{0.90, 180, 20},
		{0.99, 198, 2},
		{1.00, 200, 0},
		{0.001, 1, 199},
	}
	for _, c := range cases {
		got := percentile(xs, c.q)
		if got.Value != c.value || got.N != 200 || got.Beyond != c.beyond {
			t.Errorf("percentile(q=%v) = %+v, want value %v, n 200, beyond %d", c.q, got, c.value, c.beyond)
		}
	}
	if xs[0] != 200 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 0.99); got != (quantile{}) {
		t.Errorf("percentile(empty) = %+v, want zero", got)
	}
	// A failed or refused request is recorded as reqTimeout and must rank
	// as the slowest.
	if got := percentile([]float64{ms(reqTimeout), 1, 2}, 0.99); got.Value != ms(reqTimeout) {
		t.Errorf("percentile with a failed request = %v, want %v", got.Value, ms(reqTimeout))
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %v, want 0 for a layer that did no work", got)
	}
}

// runLadder drives a ladder against a system whose limit is capacity and
// returns the probed rates and the final passing rate.
func runLadder(l *ladder, capacity float64, maxSteps int) ([]float64, float64) {
	var probes []float64
	for i := 0; i < maxSteps; i++ {
		r, ok := l.next()
		if !ok {
			break
		}
		probes = append(probes, r)
		l.record(r, r <= capacity)
	}
	return probes, l.Pass
}

func TestLadderBracketsThenBisects(t *testing.T) {
	l := &ladder{Start: 10000, Factor: 1.5, Res: 0.03, Floor: 100}
	l.record(6000, true) // the fixed-rate window passed
	probes, got := runLadder(l, 12345, 50)
	if probes[0] != 10000 {
		t.Fatalf("first probe %v, want Start", probes[0])
	}
	if probes[1] != 15000 {
		t.Fatalf("second probe %v, want Start*Factor after a pass", probes[1])
	}
	if got > 12345 || got < 12345/1.03 {
		t.Errorf("max rate %v, want within 3%% below the capacity 12345", got)
	}
	if l.Fail > l.Pass*1.03 {
		t.Errorf("ladder stopped with bracket [%v, %v] wider than Res", l.Pass, l.Fail)
	}
	if len(probes) > 12 {
		t.Errorf("ladder took %d probes", len(probes))
	}
}

func TestLadderSearchesDownwardWhenStartFails(t *testing.T) {
	l := &ladder{Start: 8000, Factor: 2, Res: 0.05, Floor: 100}
	probes, got := runLadder(l, 1500, 50)
	if probes[1] != 4000 || probes[2] != 2000 {
		t.Fatalf("probes %v, want 8000, 4000, 2000, ... while nothing passes", probes)
	}
	if got > 1500 || got < 1500/1.05 {
		t.Errorf("max rate %v, want within 5%% below the capacity 1500", got)
	}
}

func TestLadderGivesUpBelowFloor(t *testing.T) {
	l := &ladder{Start: 800, Factor: 2, Res: 0.05, Floor: 100}
	_, got := runLadder(l, 10, 50)
	if got != 0 {
		t.Errorf("max rate %v, want 0 when every rate above the floor fails", got)
	}
	if _, ok := l.next(); ok {
		t.Error("ladder keeps probing below its floor")
	}
}

func TestSameButGeneration(t *testing.T) {
	a := []byte("{\n  \"figures\": {},\n  \"generation\": 9,\n  \"key\": \"x\"\n}\n")
	b := []byte("{\n  \"figures\": {},\n  \"generation\": 10,\n  \"key\": \"x\"\n}\n")
	c := []byte("{\n  \"figures\": {},\n  \"generation\": 10,\n  \"key\": \"y\"\n}\n")
	if !sameButGeneration(a, b) {
		t.Error("bodies that differ only in generation not recognised")
	}
	if sameButGeneration(a, a) {
		t.Error("identical bodies reported as differing in generation")
	}
	if sameButGeneration(a, c) {
		t.Error("bodies that also differ elsewhere reported as differing only in generation")
	}
	if sameButGeneration([]byte(`{"has_dataset": true}`), []byte(`{"has_dataset": false}`)) {
		t.Error("bodies without a generation field reported as differing only in generation")
	}
}

func TestHeapCycleQuantile(t *testing.T) {
	const mib = 1 << 20
	h := &heapPeak{max: 9 * mib, cycles: []uint64{9 * mib, 2 * mib, 4 * mib, 3 * mib, 8 * mib}}
	if got := h.cycleQuantile(0.5); got != 4 {
		t.Errorf("cycleQuantile(0.5) = %v, want 4", got)
	}
	if got := h.cycleQuantile(0.25); got != 3 {
		t.Errorf("cycleQuantile(0.25) = %v, want 3", got)
	}
	if got := (&heapPeak{max: 5 * mib}).cycleQuantile(0.5); got != 5 {
		t.Errorf("cycleQuantile without cycles = %v, want the peak 5", got)
	}
}
