package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestParseTracesAttributesInnermostInternalFrame(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stacks, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 11 {
		t.Fatalf("parsed %d stacks, want 11", len(stacks))
	}
	if s := stacks[0]; s.cpu != 2*time.Millisecond || s.frames[0] != "encoding/binary.bigEndian.Uint32" || len(s.frames) != 6 {
		t.Errorf("first stack = %v %q, want 2ms, the leaf without (inline), 6 frames", s.cpu, s.frames)
	}
	want := map[string]float64{
		"comco": 0.10, "other": 0.02, "sim": 0.38, "oscillator": 0.02, "interval": 0.20,
		"group": 0.10, "runtime": 0.10, "nti": 0.05, "timefmt": 0.03,
	}
	got := cpuShares(stacks)
	var sum float64
	for _, l := range cpuLayers {
		if math.Abs(got[l]-want[l]) > 1e-12 {
			t.Errorf("%s share = %v, want %v", l, got[l], want[l])
		}
		sum += got[l]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestParseTracesRejectsBadSampleValue(t *testing.T) {
	in := "-----------+------\n   lots   ntisim/internal/sim.siftDown\n"
	if _, err := parseTraces(strings.NewReader(in)); err == nil {
		t.Fatal("want an error for a sample value that is not a duration")
	}
}
