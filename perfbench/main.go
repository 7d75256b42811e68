// Command perfbench is the repository's benchmark: it runs one workload of
// the ParColl simulator for a fixed host time, checks every output against
// values it computes itself, and prints one JSON line of metrics. See
// README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many set-up-only simulations a round times. A round's
// set-up figure is their median; setup_s is the fastest round's.
const setupReps = 8

var workloads = map[string]func(seed int64) workloadRunner{
	"tile-wall":      newTileWall,
	"btio-noncontig": newBTIONoncontig,
	"tenants-bb":     newTenantsBB,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerUnits lists every per-layer metric with its unit. A metric a
// workload's layers do not expose reads 0 there (README.md says which).
var layerUnits = map[string]string{
	"runtime.gc_cycles": "count", "runtime.gc_pause_s": "s", "host.runtime_s": "s",
	"host.sim_s": "s", "host.mpi_s": "s", "host.mpiio_s": "s", "host.core_s": "s",
	"host.datatype_s": "s", "host.storage_s": "s", "host.qos_s": "s",
	"host.workload_s": "s", "host.other_s": "s", "trace.overhead_s": "s",
	"sim.events": "count", "sim.resumes": "count", "sim.sends": "count",
	"sim.advances": "count", "sim.wildcard_scanned": "count",
	"sim.ready_max_depth": "count", "sim.perturbed": "count", "sim.events_per_host_s": "1/s",
	"mpi.coll_calls": "count", "mpi.coll_bytes": "bytes", "mpi.p2p_inter_msgs": "count",
	"mpi.p2p_inter_bytes": "bytes", "mpi.p2p_intra_msgs": "count",
	"mpiio.sync_virtual_s": "virtual_s", "mpiio.exchange_virtual_s": "virtual_s",
	"mpiio.io_virtual_s": "virtual_s", "mpiio.other_virtual_s": "virtual_s", "mpiio.rounds": "count",
	"core.ext2ph_bw_MBps": "MB/s", "core.parcoll_bw_MBps": "MB/s",
	"core.parcoll_speedup": "ratio", "core.aggregators": "count",
	"storage.requests": "count", "storage.bytes": "bytes", "storage.switches": "count",
	"storage.busy_max_virtual_s":     "virtual_s",
	"qos.delay_virtual_s":            "virtual_s",
	"tenancy.tile-hog.p99_virtual_s": "virtual_s", "tenancy.tile-hog.bw_MBps": "MB/s",
	"tenancy.btio.p99_virtual_s": "virtual_s", "tenancy.btio.bw_MBps": "MB/s",
	"tenancy.ior.p99_virtual_s": "virtual_s", "tenancy.ior.bw_MBps": "MB/s",
	"tenancy.ckpt-small.p99_virtual_s": "virtual_s", "tenancy.ckpt-small.bw_MBps": "MB/s",
}

// hostBucket maps a repro/internal package to the host.* metric its CPU
// time counts toward.
func hostBucket(pkg string) string {
	switch pkg {
	case "runtime", "sim", "mpi", "mpiio", "core", "datatype", "qos", "workload":
		return "host." + pkg + "_s"
	case "storage", "lustre", "ldlm", "pvfs", "bb":
		return "host.storage_s"
	}
	return "host.other_s"
}

func main() {
	res, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if res != nil {
		line, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if err != nil {
		os.Exit(1)
	}
}

func run() (*result, error) {
	name := flag.String("workload", "", "workload to run: tile-wall, btio-noncontig or tenants-bb")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Float64("seconds", 10, "host seconds to keep starting rounds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced rounds")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if *seed == 0 {
		// Seed 0 selects the program's default seed in every spec, so it
		// would run the same machine as seed 1.
		return nil, fmt.Errorf("-seed must be non-zero")
	}
	traced := *trace == 1
	w := mk(*seed)

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var (
		runS, setupS, alloc, peak []float64
		bw, p50, p99              []float64
		tracedRunS                []float64
		layers                    = map[string][]float64{}
	)
	// Rounds repeat while the next one, as long as the last, still ends
	// within the run's seconds; the first round always runs.
	start, last := time.Now(), time.Duration(0)
	for len(runS) == 0 || (time.Since(start)+last).Seconds() <= *seconds {
		roundStart := time.Now()
		runtime.GC()
		reps := make([]float64, setupReps)
		for i := range reps {
			t0 := time.Now()
			if err := w.setup(); err != nil {
				return nil, err
			}
			reps[i] = time.Since(t0).Seconds()
		}
		setupS = append(setupS, median(reps))
		runtime.GC()
		m := newMeter(false)
		o, err := w.round(m, false)
		peakHeap := m.close()
		if err != nil {
			res.Correct = false
			return res, err
		}
		res.Attempted += o.calls
		runS = append(runS, m.wall.Seconds())
		alloc = append(alloc, float64(m.alloc))
		peak = append(peak, float64(peakHeap))
		bw = append(bw, o.virtBytes/o.virtSecs/1e6)
		p50 = append(p50, o.p50)
		p99 = append(p99, o.p99)
		fmt.Fprintf(os.Stderr, "round %d: run_s %.4f setup_s %.4f alloc %.0f peak %.0f bw %.6g p50 %.6g p99 %.6g\n",
			len(runS), m.wall.Seconds(), setupS[len(setupS)-1], float64(m.alloc), float64(peakHeap), bw[len(bw)-1], o.p50, o.p99)
		if !traced {
			last = time.Since(roundStart)
			continue
		}

		runtime.GC()
		mt := newMeter(true)
		ot, err := w.round(mt, true)
		mt.close()
		if err == nil {
			err = mt.err
		}
		if err != nil {
			res.Correct = false
			return res, err
		}
		if err := sameVirtual(o.virt, ot.virt); err != nil {
			res.Correct = false
			return res, err
		}
		res.Attempted += ot.calls
		tracedRunS = append(tracedRunS, mt.wall.Seconds())
		for k, v := range ot.layers {
			layers[k] = append(layers[k], v)
		}
		hosts := map[string]float64{}
		for pkg, s := range mt.modules {
			hosts[hostBucket(pkg)] += s
		}
		for k := range layerUnits {
			if strings.HasPrefix(k, "host.") {
				layers[k] = append(layers[k], hosts[k])
			}
		}
		layers["runtime.gc_cycles"] = append(layers["runtime.gc_cycles"], float64(mt.gcCycles))
		layers["runtime.gc_pause_s"] = append(layers["runtime.gc_pause_s"], mt.gcPause.Seconds())
		last = time.Since(roundStart)
	}

	if !traced {
		add := func(k, unit string, xs []float64) { res.Metrics[k] = metric{median(xs), unit} }
		// Interference from other work on the host only ever slows a round
		// down, and comes and goes in spells longer than a round, so the
		// fastest round is the figure least moved by it. The same holds for
		// each round's median set-up time.
		res.Metrics["run_s"] = metric{minOf(runS), "s"}
		res.Metrics["setup_s"] = metric{minOf(setupS), "s"}
		add("alloc_bytes", "bytes", alloc)
		add("peak_heap_bytes", "bytes", peak)
		add("virtual_bw_MBps", "MB/s", bw)
		add("coll_p50_virtual_s", "virtual_s", p50)
		add("coll_p99_virtual_s", "virtual_s", p99)
		return res, nil
	}
	for k, unit := range layerUnits {
		res.Metrics[k] = metric{median(layers[k]), unit}
	}
	res.Metrics["trace.overhead_s"] = metric{minOf(tracedRunS) - minOf(runS), "s"}
	res.Metrics["sim.events_per_host_s"] = metric{median(layers["sim.events"]) / minOf(runS), "1/s"}
	return res, nil
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Max(m, x)
	}
	return m
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

// sameVirtual requires a traced round's virtual-time results to equal the
// untraced round's bit for bit: the observers must not perturb the
// simulation.
func sameVirtual(bare, traced map[string]float64) error {
	keys := make([]string, 0, len(bare))
	for k := range bare {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(bare) != len(traced) {
		return fmt.Errorf("traced round reports %d virtual results, untraced %d", len(traced), len(bare))
	}
	for _, k := range keys {
		t, ok := traced[k]
		if !ok || math.Float64bits(t) != math.Float64bits(bare[k]) {
			return fmt.Errorf("virtual result %s: traced %v, untraced %v", k, t, bare[k])
		}
	}
	return nil
}
