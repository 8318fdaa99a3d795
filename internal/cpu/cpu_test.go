package cpu

import (
	"math"
	"testing"

	"ntisim/internal/sim"
)

func TestISRDelayDistribution(t *testing.T) {
	s := sim.New(1)
	c := New(s, DefaultMVME162(), "t")
	var lo, hi, sum float64 = math.Inf(1), 0, 0
	n := 20000
	for i := 0; i < n; i++ {
		d := c.ISRDelay()
		if d < DefaultMVME162().ISRLatencyMinS {
			t.Fatalf("ISR delay %v below floor", d)
		}
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
		sum += d
	}
	mean := sum / float64(n)
	if mean < 10e-6 || mean > 40e-6 {
		t.Errorf("mean ISR delay %v", mean)
	}
	// Interrupt-disabled sections create a heavy tail.
	if hi < 50e-6 {
		t.Errorf("no long-tail ISR delays seen: max %v", hi)
	}
	if hi > 1e-3 {
		t.Errorf("ISR delay unbounded: %v", hi)
	}
}

func TestTaskDelayDistribution(t *testing.T) {
	s := sim.New(2)
	c := New(s, DefaultMVME162(), "t")
	for i := 0; i < 1000; i++ {
		d := c.TaskDelay()
		if d < DefaultMVME162().TaskLatencyMinS {
			t.Fatalf("task delay %v below floor", d)
		}
		if d > 2e-3 {
			t.Fatalf("task delay %v beyond clamp", d)
		}
	}
}

func TestRunISRAndTask(t *testing.T) {
	s := sim.New(4)
	c := New(s, DefaultMVME162(), "t")
	var order []string
	c.RunISR(func() { order = append(order, "isr") })
	c.RunTask(func() { order = append(order, "task") })
	s.Run()
	if len(order) != 2 {
		t.Fatalf("ran %d callbacks", len(order))
	}
	// ISR latency < task latency for the defaults, so ISR fires first.
	if order[0] != "isr" {
		t.Errorf("order = %v", order)
	}
}

func TestDeterministicPerLabel(t *testing.T) {
	mk := func(label string) float64 {
		s := sim.New(7)
		return New(s, DefaultMVME162(), label).ISRDelay()
	}
	if mk("a") != mk("a") {
		t.Error("same label differs across runs")
	}
	if mk("a") == mk("b") {
		t.Error("different labels share a stream")
	}
}
