package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// cpuShares is a CPU profile reduced to flat CPU time per layer: each
// sample is charged to the package of its innermost frame (inlined frames
// count as the function inlined, as pprof -flat does). Repository
// packages keep their internal/ name (those not in shareLayers are
// "other"), package main is "bench", the Go runtime (with its maps and
// other internal/runtime packages) is "runtime" and every other
// standard-library package is "stdlib". GC time is counted
// separately, by stack, over the collector's own goroutines and the
// mutator assists.
type cpuShares struct {
	ns       map[string]int64
	gcNS     int64
	totalNS  int64
	labelled int64 // CPU time carrying the pprof.Do workload label
}

// gcRoots are the runtime functions whose presence anywhere in a stack
// marks the sample as garbage-collection work.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
}

// share returns a layer's fraction of all profiled CPU time.
func (c *cpuShares) share(layer string) float64 {
	if c.totalNS == 0 {
		return 0
	}
	return float64(c.ns[layer]) / float64(c.totalNS)
}

func (c *cpuShares) gcShare() float64 {
	if c.totalNS == 0 {
		return 0
	}
	return float64(c.gcNS) / float64(c.totalNS)
}

// layerOf maps a fully qualified Go function name to its layer.
func layerOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return "stdlib"
	}
	pkg := fn[:slash+1+dot]
	switch {
	case strings.HasPrefix(pkg, "dsmdist/internal/"):
		name := strings.TrimPrefix(pkg, "dsmdist/internal/")
		if slices.Contains(shareLayers, name) {
			return name
		}
		return "other"
	case pkg == "main":
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "stdlib"
}

// addProfile reads one CPU profile file through `go tool pprof -traces`
// and accumulates it. That report prints one block per distinct stack,
// separated by dashed lines: the sample's labels ("key: value"), then its
// value in ns beside the innermost function, then the callers, one per
// line.
func (c *cpuShares) addProfile(path string) error {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", path).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			err = fmt.Errorf("%v: %s", err, bytes.TrimSpace(ee.Stderr))
		}
		return fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	var v int64
	var labelled, gc, inBlock bool
	flush := func() {
		c.totalNS += v
		if labelled {
			c.labelled += v
		}
		if gc {
			c.gcNS += v
		}
		v, labelled, gc = 0, false, false
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		f := strings.Fields(line)
		if !inBlock || len(f) == 0 {
			continue
		}
		if v == 0 {
			if strings.HasSuffix(f[0], ":") {
				labelled = true
				continue
			}
			n, err := strconv.ParseInt(strings.TrimSuffix(f[0], "ns"), 10, 64)
			if err != nil || len(f) < 2 || !strings.HasSuffix(f[0], "ns") {
				return fmt.Errorf("go tool pprof %s: unexpected line %q", path, line)
			}
			v = n
			c.ns[layerOf(f[1])] += n
			f = f[1:]
		}
		gc = gc || gcRoots[f[0]]
	}
	flush()
	return sc.Err()
}
