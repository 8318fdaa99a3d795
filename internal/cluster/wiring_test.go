package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ntisim/internal/adversary"
	"ntisim/internal/gps"
	"ntisim/internal/service"
	"ntisim/internal/telemetry"
	"ntisim/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files from this run")

// wiringConfig is a 2-segment cluster with every observed layer active:
// tracing and telemetry on, a two-faced traitor, one GPS receiver whose
// fault episode begins and ends inside the run, and a small client
// population.
func wiringConfig(workers int) Config {
	cfg := shardedBase(41)
	cfg.Shards = workers
	cfg.Tracer = trace.New(trace.Options{})
	cfg.Telemetry = telemetry.New()
	cfg.Adversary = adversary.Spec{TraitorFrac: 0.125, Attack: adversary.AttackTwoFaced}
	rx := gps.DefaultReceiver()
	rx.Faults = []gps.Fault{{Kind: gps.FaultOffset, Start: 4, End: 8, Magnitude: 20e-3}}
	cfg.GPS = map[int]gps.Config{5: rx}
	cfg.Serving = service.Config{Clients: 1000, Arrival: "poisson"}
	return cfg
}

// wiringReport runs the wiring cluster and renders what its observers
// saw: per-(shard, kind) record counts, the SHA-256 of the merged-trace
// JSONL and the final telemetry snapshot.
func wiringReport(t *testing.T, workers int) (report []byte, kinds map[string]bool, snap telemetry.Snapshot) {
	t.Helper()
	c := New(wiringConfig(workers))
	c.Start(1)
	c.StartServing(1)
	c.RunUntil(12)

	recs := c.Trace().Records()
	type key struct {
		shard int16
		kind  string
	}
	counts := map[key]int{}
	kinds = map[string]bool{}
	for _, r := range recs {
		counts[key{r.Shard, r.Kind.String()}]++
		kinds[r.Kind.String()] = true
	}
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].shard != keys[j].shard {
			return keys[i].shard < keys[j].shard
		}
		return keys[i].kind < keys[j].kind
	})
	var buf bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&buf, "records shard=%d kind=%s n=%d\n", k.shard, k.kind, counts[k])
	}

	var jsonl bytes.Buffer
	if err := trace.WriteJSONL(&jsonl, recs); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "trace-sha256 %x\n", sha256.Sum256(jsonl.Bytes()))

	snap, ok := c.TelemetrySnapshot()
	if !ok {
		t.Fatal("no telemetry snapshot")
	}
	js, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString("telemetry ")
	buf.Write(js)
	buf.WriteByte('\n')
	return buf.Bytes(), kinds, snap
}

// TestObservabilityWiringGolden pins the multi-shard observability path
// against a fixed reference: which layer emitted which records on which
// shard, the merged trace bytes and the merged telemetry snapshot, at 1
// and 2 shard workers. Any diff means a layer's tracer or registry is
// wired differently. Regenerate intentionally with:
//
//	go test ./internal/cluster -run WiringGolden -update
func TestObservabilityWiringGolden(t *testing.T) {
	golden := filepath.Join("testdata", "wiring.golden.txt")
	for _, workers := range []int{1, 2} {
		got, kinds, snap := wiringReport(t, workers)
		if *update && workers == 1 {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d workers: observability report differs from golden (regenerate with -update if intentional)\n--- got ---\n%.3000s", workers, got)
		}
		for _, k := range []string{
			"frame-tx", "frame-rx", "tx-trigger", "rx-trigger", "rx-done", "latch-read",
			"csp-send", "csp-arrival", "round-start", "round-update",
			"fault-onset", "fault-clear", "lie", "query-served",
		} {
			if !kinds[k] {
				t.Errorf("%d workers: no %s record in the trace", workers, k)
			}
		}
		for _, fam := range []string{"sim.", "net.", "net.wan_", "net.relay_fwd", "sync.", "svc.", "adv.", "group."} {
			if !hasMetricFamily(snap, fam) {
				t.Errorf("%d workers: no %s* metric in the snapshot", workers, fam)
			}
		}
	}
}

// hasMetricFamily reports whether any counter, gauge or histogram name
// in s starts with prefix.
func hasMetricFamily(s telemetry.Snapshot, prefix string) bool {
	for name := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	for name := range s.Gauges {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	for name := range s.Hists {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}
