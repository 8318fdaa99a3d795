package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// stack is one distinct call stack of a CPU profile with the CPU time
// sampled in it; frames run from the leaf outwards.
type stack struct {
	cpu    time.Duration
	frames []string
}

// pprofTraces returns the `go tool pprof -traces` text of the merged
// profiles. Only the Go toolchain is needed, no profile-parsing module.
func pprofTraces(paths ...string) (string, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, paths...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof -traces: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return string(out), nil
}

// parseTraces reads `pprof -traces` output: a header, then one block
// per stack, each opening with a separator line, its first line holding
// the sampled time and the leaf frame and every further line one caller.
func parseTraces(r io.Reader) ([]stack, error) {
	var out []stack
	var cur *stack
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			out = append(out, stack{})
			cur = &out[len(out)-1]
			continue
		}
		text := strings.TrimSpace(line)
		if cur == nil || text == "" {
			continue
		}
		if len(cur.frames) == 0 {
			val, fn, ok := strings.Cut(text, " ")
			if !ok {
				return nil, fmt.Errorf("pprof traces: stack opens without a frame: %q", line)
			}
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %v", val, err)
			}
			cur.cpu = d
			text = strings.TrimSpace(fn)
		}
		cur.frames = append(cur.frames, strings.TrimSuffix(text, " (inline)"))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// The output ends with a separator, which opens no stack.
	if n := len(out); n > 0 && len(out[n-1].frames) == 0 {
		out = out[:n-1]
	}
	return out, nil
}

const internalPrefix = "ntisim/internal/"

// layerOf attributes a stack to the simulator package of its innermost
// ntisim/internal frame, so time in sort, encoding/binary or map code
// lands on the layer that called it. sim.Group methods count as the
// "group" layer; stacks without an internal frame (GC, scheduler,
// barrier parking, the benchmark's own code) count as "runtime".
func layerOf(frames []string) string {
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, internalPrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if pkg == "sim" && strings.Contains(rest, "(*Group)") {
			return "group"
		}
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	return "runtime"
}

// cpuShares returns each of cpuLayers' share of the sampled CPU time;
// the shares sum to 1 when anything was sampled.
func cpuShares(stacks []stack) map[string]float64 {
	by := map[string]time.Duration{}
	var total time.Duration
	for _, s := range stacks {
		by[layerOf(s.frames)] += s.cpu
		total += s.cpu
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = ratio(float64(by[l]), float64(total))
	}
	return out
}
