package main

import (
	"sync/atomic"

	"batcher/internal/obs"
	"batcher/internal/sched"
	"batcher/perfbench/check"
)

// probe wraps one structure of one runtime in the traced run. It times
// every RunBatch call, counts its operations, and reports the call to
// its runtime's Invariant 1–2 checker. The batch is named by its launch
// stamp, which the scheduler writes into every record before RunBatch
// when phase stamping is on.
type probe struct {
	inner sched.Batched
	inv   *check.Batches

	calls, ops, ns atomic.Int64
}

func (p *probe) RunBatch(c *sched.Ctx, ops []*sched.OpRecord) {
	p.inv.Enter(ops[0].Phases[obs.PhaseLaunch], len(ops))
	defer p.inv.Exit()
	t0 := obs.Now()
	p.inner.RunBatch(c, ops)
	p.ns.Add(obs.Now() - t0)
	p.calls.Add(1)
	p.ops.Add(int64(len(ops)))
}

// probeTotals are counters summed over probes at one instant.
type probeTotals struct{ calls, ops, ns int64 }

// probeSet holds the probes of every structure of one name (one per
// shard) so the measured phase can be read as a delta of their sums.
type probeSet struct {
	name   string
	probes []*probe
	start  probeTotals
}

func (s *probeSet) sum() probeTotals {
	var t probeTotals
	for _, p := range s.probes {
		t.calls += p.calls.Load()
		t.ops += p.ops.Load()
		t.ns += p.ns.Load()
	}
	return t
}

// mark starts the measured phase.
func (s *probeSet) mark() { s.start = s.sum() }

// report writes the measured phase's mean RunBatch time and operations
// per call into layers.
func (s *probeSet) report(layers map[string]float64) {
	t := s.sum()
	calls := t.calls - s.start.calls
	if calls == 0 {
		return
	}
	layers["ds."+s.name+".runbatch_us"] = float64(t.ns-s.start.ns) / 1e3 / float64(calls)
	layers["ds."+s.name+".ops_per_batch"] = float64(t.ops-s.start.ops) / float64(calls)
}

// unwrap returns the structure behind a probe, or b itself.
func unwrap(b sched.Batched) sched.Batched {
	if p, ok := b.(*probe); ok {
		return p.inner
	}
	return b
}
