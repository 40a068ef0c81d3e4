package simmach

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSingleFlow(t *testing.T) {
	s := New()
	r := s.AddResource("mem", 10)
	p := s.AddProc("core0")
	p.Add(Item{Tag: "work", Flows: []Flow{{Demand: 50, Resources: []int{r}}}})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Makespan, 5) {
		t.Fatalf("makespan = %v, want 5", res.Makespan)
	}
	if !almostEq(res.ResourceUnits[r], 50) {
		t.Fatalf("units = %v, want 50", res.ResourceUnits[r])
	}
}

func TestFairSharingUnequalDemands(t *testing.T) {
	// Two flows share cap 10. Both run at 5 until the small one (10 units)
	// finishes at t=2; the big one (30 units) then runs at 10: 20 left ->
	// finishes at t=4.
	s := New()
	r := s.AddResource("mem", 10)
	a := s.AddProc("a")
	b := s.AddProc("b")
	a.Add(Item{Flows: []Flow{{Demand: 10, Resources: []int{r}}}})
	b.Add(Item{Flows: []Flow{{Demand: 30, Resources: []int{r}}}})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.ProcEnd[0], 2) || !almostEq(res.ProcEnd[1], 4) {
		t.Fatalf("ends = %v, want [2 4]", res.ProcEnd)
	}
}

func TestMaxMinClassic(t *testing.T) {
	// f1 uses R1(10); f2 uses R1 and R2(8); f3 uses R2.
	// Progressive filling: all rise to 4 (R2 saturates, freezing f2,f3);
	// f1 continues to 6.
	s := New()
	r1 := s.AddResource("r1", 10)
	r2 := s.AddResource("r2", 8)
	rates := s.Rates([]Flow{
		{Demand: 1, Resources: []int{r1}},
		{Demand: 1, Resources: []int{r1, r2}},
		{Demand: 1, Resources: []int{r2}},
	})
	want := []float64{6, 4, 4}
	for i := range want {
		if !almostEq(rates[i], want[i]) {
			t.Fatalf("rates = %v, want %v", rates, want)
		}
	}
}

func TestMaxRateCap(t *testing.T) {
	s := New()
	r := s.AddResource("link", 100)
	rates := s.Rates([]Flow{
		{Demand: 1, Resources: []int{r}, MaxRate: 10},
		{Demand: 1, Resources: []int{r}},
	})
	if !almostEq(rates[0], 10) || !almostEq(rates[1], 90) {
		t.Fatalf("rates = %v, want [10 90]", rates)
	}
}

func TestPathBottleneck(t *testing.T) {
	// A flow traversing two resources is limited by the tighter one.
	s := New()
	wide := s.AddResource("wide", 100)
	narrow := s.AddResource("narrow", 7)
	p := s.AddProc("p")
	p.Add(Item{Flows: []Flow{{Demand: 70, Resources: []int{wide, narrow}}}})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Makespan, 10) {
		t.Fatalf("makespan = %v, want 10", res.Makespan)
	}
	// Both resources carried the full 70 units.
	if !almostEq(res.ResourceUnits[wide], 70) || !almostEq(res.ResourceUnits[narrow], 70) {
		t.Fatalf("units = %v", res.ResourceUnits)
	}
}

func TestDelayItem(t *testing.T) {
	s := New()
	p := s.AddProc("p")
	p.Add(Item{Delay: 1.5}, Item{Delay: 0.5})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Makespan, 2) {
		t.Fatalf("makespan = %v, want 2", res.Makespan)
	}
}

func TestDelayThenFlow(t *testing.T) {
	s := New()
	r := s.AddResource("mem", 10)
	p := s.AddProc("p")
	p.Add(Item{Delay: 1, Flows: []Flow{{Demand: 20, Resources: []int{r}}}})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Makespan, 3) {
		t.Fatalf("makespan = %v, want 3 (1 delay + 2 transfer)", res.Makespan)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	s := New()
	r := s.AddResource("cpu", 1)
	_ = r
	b := s.NewBarrier(2, 0.25)
	fast := s.AddProc("fast")
	slow := s.AddProc("slow")
	fast.Add(Item{Delay: 1, Barrier: b}, Item{Delay: 0.5})
	slow.Add(Item{Delay: 3, Barrier: b}, Item{Delay: 0.5})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Both released at 3 + 0.25, then 0.5 more.
	if !almostEq(res.ProcEnd[0], 3.75) || !almostEq(res.ProcEnd[1], 3.75) {
		t.Fatalf("ends = %v, want [3.75 3.75]", res.ProcEnd)
	}
}

func TestBarrierReusedAcrossRepeats(t *testing.T) {
	// Two procs alternate through 3 barrier generations; makespan is the
	// slow proc's total plus barrier costs.
	s := New()
	b := s.NewBarrier(2, 0.1)
	a := s.AddProc("a")
	c := s.AddProc("c")
	a.Add(Item{Delay: 1, Barrier: b, Repeat: 2})
	c.Add(Item{Delay: 2, Barrier: b, Repeat: 2})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Each generation: slow arrives 2s after release; +0.1 release cost.
	// t1 = 2.1, t2 = 4.2, t3 = 6.3 (the fast proc waits each round).
	if !almostEq(res.Makespan, 6.3) {
		t.Fatalf("makespan = %v, want 6.3", res.Makespan)
	}
}

func TestRepeatRunsNPlusOneTimes(t *testing.T) {
	s := New()
	r := s.AddResource("mem", 1)
	p := s.AddProc("p")
	p.Add(Item{Flows: []Flow{{Demand: 2, Resources: []int{r}}}, Repeat: 2})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Makespan, 6) {
		t.Fatalf("makespan = %v, want 6 (3 runs x 2s)", res.Makespan)
	}
	if !almostEq(res.ResourceUnits[r], 6) {
		t.Fatalf("units = %v, want 6", res.ResourceUnits[r])
	}
}

func TestBarrierDeadlockDetected(t *testing.T) {
	s := New()
	b := s.NewBarrier(2, 0)
	p := s.AddProc("alone")
	p.Add(Item{Tag: "join", Barrier: b})
	_, err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestConcurrentFlowsWithinItem(t *testing.T) {
	// An item with a compute flow and a memory flow completes when the
	// slower of the two finishes (overlapped execution).
	s := New()
	cpu := s.AddResource("cpu", 10)
	mem := s.AddResource("mem", 5)
	p := s.AddProc("p")
	p.Add(Item{Flows: []Flow{
		{Demand: 10, Resources: []int{cpu}}, // 1s
		{Demand: 20, Resources: []int{mem}}, // 4s
	}})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Makespan, 4) {
		t.Fatalf("makespan = %v, want 4", res.Makespan)
	}
}

func TestZeroDemandFlowSkipped(t *testing.T) {
	s := New()
	r := s.AddResource("mem", 1)
	p := s.AddProc("p")
	p.Add(Item{Flows: []Flow{{Demand: 0, Resources: []int{r}}, {Demand: 1, Resources: []int{r}}}})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Makespan, 1) {
		t.Fatalf("makespan = %v, want 1", res.Makespan)
	}
}

func TestEmptyProcFinishesImmediately(t *testing.T) {
	s := New()
	s.AddProc("idle")
	r := s.AddResource("mem", 1)
	p := s.AddProc("busy")
	p.Add(Item{Flows: []Flow{{Demand: 2, Resources: []int{r}}}})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.ProcEnd[0], 0) || !almostEq(res.ProcEnd[1], 2) {
		t.Fatalf("ends = %v", res.ProcEnd)
	}
}

// TestRatesWorkConserving: on a single shared resource, max–min allocations
// sum to min(capacity, sum of caps) and no flow exceeds its cap.
func TestRatesWorkConserving(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		cap := 1 + rng.Float64()*99
		r := s.AddResource("r", cap)
		n := 1 + rng.Intn(8)
		flows := make([]Flow, n)
		capSum := 0.0
		for i := range flows {
			flows[i] = Flow{Demand: 1, Resources: []int{r}}
			if rng.Intn(2) == 0 {
				flows[i].MaxRate = rng.Float64() * 30
				if flows[i].MaxRate == 0 {
					flows[i].MaxRate = 1
				}
				capSum += flows[i].MaxRate
			} else {
				capSum += math.Inf(1)
			}
		}
		rates := s.Rates(flows)
		var sum float64
		for i, rt := range rates {
			if flows[i].MaxRate > 0 && rt > flows[i].MaxRate+1e-9 {
				return false
			}
			sum += rt
		}
		want := math.Min(cap, capSum)
		return almostEq(sum, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestUnitsConservation: total units served equal total demand issued, for
// random multi-proc programs.
func TestUnitsConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		nres := 1 + rng.Intn(4)
		rids := make([]int, nres)
		for i := range rids {
			rids[i] = s.AddResource("r", 1+rng.Float64()*20)
		}
		perRes := make([]float64, nres)
		for pi := 0; pi < 1+rng.Intn(4); pi++ {
			p := s.AddProc("p")
			for it := 0; it < 1+rng.Intn(3); it++ {
				var flows []Flow
				for fi := 0; fi < 1+rng.Intn(3); fi++ {
					rid := rids[rng.Intn(nres)]
					d := 1 + rng.Float64()*10
					flows = append(flows, Flow{Demand: d, Resources: []int{rid}})
					perRes[rid] += d
				}
				p.Add(Item{Flows: flows})
			}
		}
		res, err := s.Run()
		if err != nil {
			return false
		}
		for i := range rids {
			if !almostEq(res.ResourceUnits[i], perRes[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAddResourcePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().AddResource("bad", 0)
}

func TestNewBarrierPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().NewBarrier(0, 0)
}

// BenchmarkAssignRates measures the max–min fair allocation on a
// machine-sized flow set (112 cores' worth of flows over ~60 resources).
func BenchmarkAssignRates(b *testing.B) {
	s := New()
	var res []int
	for i := 0; i < 60; i++ {
		res = append(res, s.AddResource("r", float64(1+i%7)))
	}
	flows := make([]Flow, 112)
	for i := range flows {
		flows[i] = Flow{Demand: 1, Resources: []int{res[i%60], res[(i*7)%60]}}
		if i%3 == 0 {
			flows[i].MaxRate = 0.4
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Rates(flows)
	}
}
