package main

import (
	"fmt"
	"time"

	"batcher/internal/ds/counter"
	"batcher/internal/ds/skiplist"
	"batcher/internal/obs"
	"batcher/internal/rng"
	"batcher/internal/sched"
	"batcher/perfbench/check"
)

// The fj-skiplist workload is the paper's Section 7 program: a parallel
// loop of InsertMany calls, each carrying fjKeysPerCall keys, into a
// pre-populated batched skip list, plus one counter Increment per call,
// on a P = GOMAXPROCS runtime. No wire, pump, shard or admission sits in
// the path, so it prices the scheduler (Batchify, LaunchBatch, steals)
// and the skip list's BOP alone.
const (
	fjKeySpace    = 1 << 19 // keys are uniform in [0, fjKeySpace)
	fjInitial     = 1 << 17 // keys inserted before the runtime starts
	fjKeysPerCall = 100     // the paper's records per Batchify call
	fjRound       = 512     // calls per Run; a run attempts whole rounds
	fjWarmRounds  = 1
)

type fjRun struct {
	trace   bool
	rt      *sched.Runtime
	list    *skiplist.Batched
	listDS  sched.Batched // what the records target: the list or its probe
	ctrDS   sched.Batched
	probes  []*probeSet
	inv     *check.Batches
	conform *obs.Conform
	r       *rng.Rand

	present []bool // keys inserted so far, kept apart from the list
	initial int

	keys    [][]int64  // this round's keys, one slice per call
	lat     []int64    // per-call InsertMany latency, measured rounds
	done    []int64    // per-call InsertMany completion stamp, measured rounds
	incr    []int64    // every Increment result
	newly   int64      // sum of InsertMany results
	stamps  []opStamps // traced run: every op's scheduler stamps
	roundLt []int64
	roundDn []int64
	roundNw []int64
}

// opStamps are the scheduler's stamps of one operation.
type opStamps struct{ pending, launch, land int64 }

func stampsOf(op *sched.OpRecord) opStamps {
	return opStamps{op.Phases[obs.PhasePending], op.Phases[obs.PhaseLaunch], op.Phases[obs.PhaseLand]}
}

func newFJ(cfg config) *fjRun {
	f := &fjRun{
		trace:   cfg.trace,
		rt:      sched.New(sched.Config{Seed: cfg.seed}), // P = GOMAXPROCS
		list:    skiplist.NewBatched(cfg.seed),
		r:       rng.New(cfg.seed ^ 0x5eed),
		present: make([]bool, fjKeySpace),
		keys:    make([][]int64, fjRound),
		roundLt: make([]int64, fjRound),
		roundDn: make([]int64, fjRound),
		roundNw: make([]int64, fjRound),
	}
	for i := range f.keys {
		f.keys[i] = make([]int64, fjKeysPerCall)
	}
	for i := 0; i < fjInitial; i++ {
		k := int64(f.r.Uint64() % fjKeySpace)
		f.list.List().Insert(k, 0)
		f.present[k] = true
	}
	f.initial = f.list.List().Len()
	ctr := counter.New(0)
	f.listDS, f.ctrDS = f.list, ctr
	if f.trace {
		f.inv = check.NewBatches(f.rt.Workers())
		lp := &probe{inner: f.list, inv: f.inv}
		cp := &probe{inner: ctr, inv: f.inv}
		f.listDS, f.ctrDS = lp, cp
		f.probes = []*probeSet{{name: "skiplist", probes: []*probe{lp}}, {name: "counter", probes: []*probe{cp}}}
		f.rt.SetPhaseStamps(true)
		// One window longer than any run, so the gauges cover all of it.
		f.conform = obs.NewConform(time.Hour)
		f.rt.SetConformance(f.conform)
	}
	for i := 0; i < fjWarmRounds; i++ {
		f.round(false)
	}
	return f
}

// round runs fjRound calls as one parallel loop; measured rounds keep
// their per-call latencies.
func (f *fjRun) round(measured bool) {
	for _, ks := range f.keys {
		for j := range ks {
			k := int64(f.r.Uint64() % fjKeySpace)
			ks[j] = k
			f.present[k] = true
		}
	}
	base := len(f.incr)
	f.incr = append(f.incr, make([]int64, fjRound)...)
	sbase := len(f.stamps)
	if f.trace {
		f.stamps = append(f.stamps, make([]opStamps, 2*fjRound)...)
	}
	f.rt.Run(func(c *sched.Ctx) {
		c.For(0, fjRound, 1, func(c *sched.Ctx, i int) {
			op := c.Op()
			*op = sched.OpRecord{DS: f.listDS, Kind: skiplist.OpInsertMany, Aux: f.keys[i]}
			t0 := obs.Now()
			c.Batchify(op)
			t1 := obs.Now()
			f.roundLt[i], f.roundDn[i] = t1-t0, t1
			f.roundNw[i] = op.Res
			if f.trace {
				f.stamps[sbase+2*i] = stampsOf(op)
			}
			*op = sched.OpRecord{DS: f.ctrDS, Kind: counter.OpIncrement, Val: 1}
			c.Batchify(op)
			f.incr[base+i] = op.Res
			if f.trace {
				f.stamps[sbase+2*i+1] = stampsOf(op)
			}
		})
	})
	for _, n := range f.roundNw {
		f.newly += n
	}
	if measured {
		f.lat = append(f.lat, f.roundLt...)
		f.done = append(f.done, f.roundDn...)
	}
}

func runFJ(cfg config) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	var f *fjRun
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		f = newFJ(cfg)
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}
	f.rt.ResetMetrics()
	for _, ps := range f.probes {
		ps.mark()
	}

	out.meter = startMeter(cfg.seconds)
	rounds := 0
	for rounds == 0 || out.meter.running() {
		f.round(true)
		rounds++
	}
	out.meter.wait()
	out.attempted = int64(rounds * fjRound)
	out.done, out.lat = f.done, f.lat

	// Output checks, computed apart from the program.
	if err := check.Counter(f.incr); err != nil {
		out.problem("fj-skiplist counter: %v", err)
	}
	var want []int64
	for k, ok := range f.present {
		if ok {
			want = append(want, int64(k))
		}
	}
	got := f.list.List().Keys()
	if err := check.Equal(got, want); err != nil {
		out.problem("fj-skiplist contents: %v", err)
	}
	if inserted := int64(len(got) - f.initial); f.newly != inserted {
		out.problem("fj-skiplist: InsertMany calls reported %d keys newly inserted, the list grew by %d", f.newly, inserted)
	}

	met := f.rt.Metrics()
	if f.trace {
		if err := f.inv.Err(); err != nil {
			out.problem("fj-skiplist: %v", err)
		}
		waits := make([]check.Wait, len(f.stamps))
		for i, s := range f.stamps {
			waits[i] = check.Wait{Pending: s.pending, Land: s.land}
		}
		f.traceLayers(out, met, lemma2(waits))
	}
	fmt.Printf("fj-skiplist: rounds=%d calls=%d list=%d %s\n", rounds, out.attempted, len(got), met.String())
	return out, nil
}

// traceLayers fills the fork-join run's per-layer metrics.
func (f *fjRun) traceLayers(out *outcome, met sched.Metrics, lemma2 int) {
	l := out.layers
	measured := f.stamps[len(f.stamps)-2*len(f.lat):]
	pend := make([]int64, len(measured))
	exec := make([]int64, len(measured))
	delay := make([]int64, len(measured))
	for i, s := range measured {
		pend[i], exec[i], delay[i] = s.launch-s.pending, s.land-s.launch, s.land-s.pending
	}
	percentiles(l, "sched.pending_us", pend)
	percentiles(l, "sched.exec_us", exec)
	percentiles(l, "sched.batch_delay_us", delay)
	l["sched.mean_batch"] = met.MeanBatchSize()
	if met.OpsSubmitted > 0 {
		ops := float64(met.OpsSubmitted)
		l["sched.steals_per_op"] = float64(met.SuccessfulSteals) / ops
		l["sched.failed_steals_per_op"] = float64(met.FailedSteals) / ops
		l["sched.parks_per_op"] = float64(met.Parks) / ops
	}
	for _, ps := range f.probes {
		ps.report(l)
	}
	cs := f.conform.Snapshot()
	l["conform.headroom_max"] = cs.Headroom
	l["conform.max_landings"] = float64(cs.MaxLandings)
	l["lemma2.max_landings"] = float64(lemma2)
}
