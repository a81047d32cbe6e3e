// Command perfbench is the repository's benchmark. It runs one named
// workload against the BATCHER runtime in a single process, checks the
// program's outputs against properties the method must have, and prints
// its metrics as one JSON object on the last line of standard output:
//
//	perfbench --workload <fj-skiplist|wire-closed|wire-open> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the object carries the end-to-end metrics of a plain
// run; with --trace 1 the per-layer metrics of a run instrumented from
// this package's own files (README.md lists both). The exit code is
// non-zero when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// setupRepeats is how many times each run builds its system under test
// (server or runtime, preload, warm-up); setup_s is the median, so one
// slow start does not move it. Only the last build is measured.
const setupRepeats = 5

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

// outcome is what a workload reports back to main.
type outcome struct {
	attempted, failed int64
	setups            []float64 // seconds
	meter             *meter
	done, lat         []int64 // per completed op: completion stamp and latency, ns
	problems          []string
	layers            map[string]float64
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// metric is one entry of the result's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"cpu_us_per_op", "us"},
}

// perLayer lists the traced run's per-layer metrics with their units.
// Every workload prints all of them; a layer the workload does not pass
// through (the wire on fj-skiplist) reads 0.
var perLayer = []struct{ name, unit string }{
	{"wire.in_us.mean", "us"},
	{"wire.in_us.p99", "us"},
	{"wire.out_us.mean", "us"},
	{"wire.out_us.p99", "us"},
	{"server.read_syscalls_per_op", "1/op"},
	{"server.write_syscalls_per_op", "1/op"},
	{"server.ingress_us.p50", "us"},
	{"server.ingress_us.p999", "us"},
	{"server.ingress_us.max", "us"},
	{"server.complete_us.mean", "us"},
	{"pump.queue_us.p50", "us"},
	{"pump.queue_us.p99", "us"},
	{"sched.pending_us.p50", "us"},
	{"sched.pending_us.p99", "us"},
	{"sched.exec_us.p50", "us"},
	{"sched.exec_us.p99", "us"},
	{"sched.batch_delay_us.p50", "us"},
	{"sched.batch_delay_us.p99", "us"},
	{"sched.mean_batch", "ops"},
	{"sched.steals_per_op", "1/op"},
	{"sched.failed_steals_per_op", "1/op"},
	{"sched.parks_per_op", "1/op"},
	{"ds.skiplist.runbatch_us", "us"},
	{"ds.skiplist.ops_per_batch", "ops"},
	{"ds.hashmap.runbatch_us", "us"},
	{"ds.hashmap.ops_per_batch", "ops"},
	{"ds.tree23.runbatch_us", "us"},
	{"ds.tree23.ops_per_batch", "ops"},
	{"ds.counter.runbatch_us", "us"},
	{"ds.counter.ops_per_batch", "ops"},
	{"shard.imbalance", "ratio"},
	{"admission.predicted_p999_us", "us"},
	{"admission.twin_residual_pct", "%"},
	{"admission.shed", "count"},
	{"conform.headroom_max", "ratio"},
	{"conform.max_landings", "count"},
	{"lemma2.max_landings", "count"},
	{"gen.late_p99_us", "us"},
	{"host.steal_pct", "%"},
}

var workloads = map[string]func(config) (*outcome, error){
	"fj-skiplist": runFJ,
	"wire-closed": runWireClosed,
	"wire-open":   runWireOpen,
}

func main() {
	var cfg config
	var seconds, trace int
	commit := flag.String("commit", "unknown", "commit the binary was built from (host metadata only)")
	flag.StringVar(&cfg.workload, "workload", "", "workload: fj-skiplist, wire-closed or wire-open")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload fj-skiplist|wire-closed|wire-open, --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	printJSON("host", map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": *commit, "seed": cfg.seed, "workload": cfg.workload, "trace": trace, "seconds": seconds,
	})
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	out.layers["host.steal_pct"] = out.meter.stealPct

	e2e := endToEndValues(out)
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	printJSON("host after", map[string]any{"steal_pct": out.meter.stealPct, "peak_rss_mb": peakRSSMB()})
	if cfg.trace {
		// The traced run's own end-to-end figures; set beside a plain
		// run's they give the tracing overhead.
		printJSON("traced end_to_end", e2e)
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{out.layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// endToEndValues derives the end-to-end metrics from a run's outcome.
// It also prints the whole run's latency tail, which is not among them:
// on a shared host it swings several-fold between identical runs.
func endToEndValues(o *outcome) map[string]float64 {
	v := o.meter.windowed(o.done, o.lat)
	v["setup_s"] = median(o.setups)
	q := quantiles(append([]int64(nil), o.lat...), 0.50, 0.99, 0.999, 1)
	fmt.Printf("latency over the whole run: ops=%d p50_us=%.1f p99_us=%.1f p999_us=%.1f max_us=%.1f\n",
		len(o.lat), q[0]/1e3, q[1]/1e3, q[2]/1e3, q[3]/1e3)
	return v
}

// printJSON prints one labelled line of metadata.
func printJSON(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprint(v))
	}
	fmt.Printf("%s: %s\n", label, b)
}
