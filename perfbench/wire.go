package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"batcher/internal/ds/hashmap"
	"batcher/internal/ds/skiplist"
	"batcher/internal/ds/tree23"
	"batcher/internal/loadgen"
	"batcher/internal/obs"
	"batcher/internal/rng"
	"batcher/internal/sched"
	"batcher/internal/server"
	"batcher/internal/shard"
	"batcher/perfbench/check"
)

// wop is one wire operation in a connection's history: the request, the
// response, and the client's clock (obs.Now, the server's epoch, since
// both run in this process) at each step.
type wop struct {
	ds, op, flags uint8
	key, val      int64
	rkey, res     int64
	due           int64 // open loop: when the schedule said to send it
	send          int64 // before Send buffered the request
	flush         int64 // before the Flush that wrote it to the socket
	ack           int64 // after its response was decoded
}

func (o *wop) failed() bool { return o.flags&server.FlagErr != 0 }

// value is the only value any insert of key ever writes, so a read can
// be checked against it.
func value(key int64) int64 { return 2*key + 1 }

// wconn is one pre-dialed connection and its history. Request ids are
// history indexes plus one, so a response finds its record directly.
type wconn struct {
	c      *loadgen.Client
	r      *rng.Rand
	trace  bool
	ops    []wop
	phases [][obs.NumPhases]int64 // traced run: echoed stamps, by history index
}

// add appends an operation to the history and returns its index.
func (w *wconn) add(o wop) int {
	w.ops = append(w.ops, o)
	if w.trace {
		w.phases = append(w.phases, [obs.NumPhases]int64{})
	}
	return len(w.ops) - 1
}

func (w *wconn) send(i int) error {
	o := &w.ops[i]
	op := o.op
	if w.trace {
		op |= server.OpFlagPhases
	}
	_, err := w.c.Send(server.Request{ID: uint64(i + 1), DS: o.ds, Op: op, Key: o.key, Val: o.val})
	return err
}

func (w *wconn) recv() error {
	resp, err := w.c.Recv()
	now := obs.Now()
	if err != nil {
		return fmt.Errorf("recv: %w", err)
	}
	i := int(resp.ID) - 1
	if i < 0 || i >= len(w.ops) || w.ops[i].ack != 0 {
		return fmt.Errorf("response for unknown or answered request id %d", resp.ID)
	}
	o := &w.ops[i]
	o.ack, o.flags, o.rkey, o.res = now, resp.Flags, resp.Key, resp.Res
	if w.trace {
		w.phases[i] = resp.Phases
	}
	return nil
}

// Each wire workload drives wireConns pre-dialed connections, one per
// CPU of the 2-vCPU host it was sized on. closedDepth is each
// connection's pipelining depth in the closed loop, which sends in
// bursts of half of it.
const (
	wireConns   = 2
	closedDepth = 64
)

// closed sends the history's operations [from, len) with up to
// closedDepth in flight and waits for every response.
func (w *wconn) closed(from int) error {
	sent, recvd, end := from, from, len(w.ops)
	for recvd < end {
		burst := sent
		for sent < end && sent-recvd < closedDepth {
			w.ops[sent].send = obs.Now()
			if err := w.send(sent); err != nil {
				return err
			}
			sent++
		}
		f := obs.Now()
		for i := burst; i < sent; i++ {
			w.ops[i].flush = f
		}
		if err := w.c.Flush(); err != nil {
			return err
		}
		drainTo := closedDepth / 2
		if sent == end {
			drainTo = 0
		}
		for sent-recvd > drainTo {
			if err := w.recv(); err != nil {
				return err
			}
			recvd++
		}
	}
	return nil
}

// wireSpec is a wire workload: the server it runs against, how its
// connections are preloaded, and what traffic they carry.
type wireSpec struct {
	name string
	cfg  server.Config
	// preload returns the operations each connection sends first, so
	// that reads have something to find.
	preload func(r *rng.Rand, conn int) []wop
	// next draws one operation of the workload's traffic.
	next func(r *rng.Rand) wop
	// warm is how many traffic operations each connection sends in
	// closed loop before measuring.
	warm int
	// prepare, if set, precomputes the measured phase's inputs.
	prepare func(ws *wireRun, cfg config)
	// measure drives the measured phase, which m times.
	measure func(ws *wireRun, m *meter) error
}

// wireRun is one built system under test: a server, its connections,
// and the probes spliced into its structures.
type wireRun struct {
	spec   *wireSpec
	srv    *server.Server
	conns  []*wconn
	inv    []*check.Batches
	probes map[uint8]*probeSet
	start  []int // per connection: first history index of the measured phase
	plan   []arrival
	late   []int64
}

var dsNames = map[uint8]string{
	server.DSCounter: "counter", server.DSSkiplist: "skiplist",
	server.DSTree23: "tree23", server.DSHashmap: "hashmap",
}

func buildWire(spec *wireSpec, cfg config) (*wireRun, error) {
	ws := &wireRun{spec: spec}
	scfg := spec.cfg
	scfg.Seed = cfg.seed
	if cfg.trace {
		p := scfg.Workers
		if p <= 0 {
			p = runtime.GOMAXPROCS(0)
		}
		ws.inv = make([]*check.Batches, max(scfg.Shards, 1))
		for i := range ws.inv {
			ws.inv[i] = check.NewBatches(p)
		}
		ws.probes = map[uint8]*probeSet{}
		for ds, name := range dsNames {
			ws.probes[ds] = &probeSet{name: name}
		}
		// Start calls WrapDS for every shard before it returns, so the
		// probe sets are complete, and unshared, once it does.
		scfg.WrapDS = func(sh int, ds uint8, b sched.Batched) sched.Batched {
			p := &probe{inner: b, inv: ws.inv[sh]}
			ps := ws.probes[ds]
			ps.probes = append(ps.probes, p)
			return p
		}
	}
	srv, err := server.Start(scfg)
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	ws.srv = srv
	for i := 0; i < wireConns; i++ {
		c, err := loadgen.Dial(srv.Addr().String())
		if err != nil {
			ws.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		ws.conns = append(ws.conns, &wconn{c: c, r: rng.New(cfg.seed*0x9e3779b97f4a7c15 + uint64(i) + 1), trace: cfg.trace})
	}
	err = ws.eachConn(func(i int, w *wconn) error {
		for _, o := range spec.preload(w.r, i) {
			w.add(o)
		}
		for j := 0; j < spec.warm; j++ {
			w.add(spec.next(w.r))
		}
		return w.closed(0)
	})
	if err != nil {
		ws.close()
		return nil, err
	}
	return ws, nil
}

// eachConn runs fn on every connection concurrently and returns the
// first error.
func (ws *wireRun) eachConn(fn func(int, *wconn) error) error {
	errs := make([]error, len(ws.conns))
	var wg sync.WaitGroup
	for i, w := range ws.conns {
		wg.Add(1)
		go func(i int, w *wconn) {
			defer wg.Done()
			errs[i] = fn(i, w)
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// close drops the connections and drains the server.
func (ws *wireRun) close() {
	for _, w := range ws.conns {
		w.c.Close()
	}
	ws.srv.Shutdown()
}

func runWire(spec *wireSpec, cfg config) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	var ws *wireRun
	for i := 0; i < setupRepeats; i++ {
		if ws != nil {
			ws.close()
		}
		t0 := time.Now()
		var err error
		if ws, err = buildWire(spec, cfg); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}
	for _, w := range ws.conns {
		for i := range w.ops {
			if w.ops[i].failed() {
				ws.close()
				return nil, fmt.Errorf("preload or warm-up operation failed (flags %#x)", w.ops[i].flags)
			}
		}
		ws.start = append(ws.start, len(w.ops))
	}
	for _, ps := range ws.probes {
		ps.mark()
	}
	if spec.prepare != nil {
		spec.prepare(ws, cfg)
	}
	before := ws.srv.Snapshot()
	out.meter = startMeter(cfg.seconds)
	err := spec.measure(ws, out.meter)
	out.meter.wait()
	if err != nil {
		ws.close()
		return nil, err
	}
	after := ws.srv.Snapshot()
	for _, ps := range ws.probes {
		ps.report(out.layers)
	}
	ws.close()

	measured := 0
	for ci, w := range ws.conns {
		measured += len(w.ops) - ws.start[ci]
	}
	out.done, out.lat = make([]int64, 0, measured), make([]int64, 0, measured)
	for ci, w := range ws.conns {
		for i := ws.start[ci]; i < len(w.ops); i++ {
			o := &w.ops[i]
			out.attempted++
			if o.failed() {
				out.failed++
				continue
			}
			out.done = append(out.done, o.ack)
			if o.due != 0 {
				out.lat = append(out.lat, o.ack-o.due)
			} else {
				out.lat = append(out.lat, o.ack-o.send)
			}
		}
	}
	ws.checkOutputs(out)
	if cfg.trace {
		ws.traceLayers(out, before, after)
	}
	fmt.Printf("%s: ops=%d failed=%d batches=%d mean_batch=%.2f shed=%d\n", spec.name, out.attempted, out.failed,
		after.Batches-before.Batches, float64(after.BatchedOps-before.BatchedOps)/float64(max(1, after.Batches-before.Batches)), after.Shed)
	return out, nil
}

// checkOutputs checks every acknowledged operation of the history and
// the structures' contents after shutdown.
func (ws *wireRun) checkOutputs(out *outcome) {
	router := ws.srv.Router()
	n := router.N()
	var counts []int64
	size := map[uint8]int{}
	for _, w := range ws.conns {
		for i := range w.ops {
			size[w.ops[i].ds]++
		}
	}
	hist := map[uint8][]check.Op{}
	for ds, k := range size {
		hist[ds] = make([]check.Op, 0, k)
	}
	for _, w := range ws.conns {
		for i := range w.ops {
			o := &w.ops[i]
			if o.failed() {
				continue
			}
			if o.ds == server.DSCounter {
				counts = append(counts, o.res)
				continue
			}
			c := check.Op{Key: o.key, OK: o.flags&server.FlagOK != 0, Val: o.res, Send: o.send, Ack: o.ack}
			switch o.op {
			case server.OpLookup:
				c.Kind = check.Lookup
			case server.OpSucc:
				c.Kind, c.Got = check.Succ, o.rkey
			}
			hist[o.ds] = append(hist[o.ds], c)
		}
	}
	if len(counts) > 0 {
		if err := check.Counter(counts); err != nil {
			out.problem("%s: %v", ws.spec.name, err)
		}
	}
	for ds, h := range hist {
		name := dsNames[ds]
		keys, err := check.Keyed(h, value)
		if err != nil {
			out.problem("%s %s history: %v", ws.spec.name, name, err)
			continue
		}
		of := func(k int64) int { return shard.Of(ds, k, n) }
		var lists [][]int64
		var sizes []int
		for i := 0; i < n; i++ {
			switch b := unwrap(router.Shard(i).DS(int(ds))).(type) {
			case *skiplist.Batched:
				lists = append(lists, b.List().Keys())
			case *tree23.Batched:
				lists = append(lists, b.Tree().Keys())
			case *hashmap.Batched:
				sizes = append(sizes, b.Len())
			}
		}
		if sizes != nil {
			err = check.Counts(sizes, keys, of)
		} else {
			err = check.Placement(lists, keys, of)
		}
		if err != nil {
			out.problem("%s %s contents after shutdown: %v", ws.spec.name, name, err)
		}
	}
	for i, inv := range ws.inv {
		if err := inv.Err(); err != nil {
			out.problem("%s shard %d: %v", ws.spec.name, i, err)
		}
	}
}

// shardOf is the shard an operation ran on.
func shardOf(o *wop, n int) int {
	if o.ds == server.DSCounter {
		return shard.Home(o.ds, n)
	}
	return shard.Of(o.ds, o.key, n)
}

// traceLayers fills the wire run's per-layer metrics from the echoed
// stamps, the server's snapshots around the measured phase, and the
// shard runtimes' counters after shutdown.
func (ws *wireRun) traceLayers(out *outcome, before, after server.Stats) {
	l := out.layers
	n := ws.srv.Router().N()
	waits := make([][]check.Wait, n)
	for _, w := range ws.conns {
		for i := range w.ops {
			if o := &w.ops[i]; !o.failed() {
				sh := shardOf(o, n)
				waits[sh] = append(waits[sh], check.Wait{Pending: w.phases[i][obs.PhasePending], Land: w.phases[i][obs.PhaseLand]})
			}
		}
	}
	worst := 0
	for _, wt := range waits {
		worst = max(worst, lemma2(wt))
	}
	l["lemma2.max_landings"] = float64(worst)

	// interval collects one per-op interval of the measured phase into a
	// buffer that every call reuses.
	buf := make([]int64, 0, len(out.lat))
	interval := func(d func(o *wop, ph *[obs.NumPhases]int64) int64) []int64 {
		buf = buf[:0]
		for ci, w := range ws.conns {
			for i := ws.start[ci]; i < len(w.ops); i++ {
				if o := &w.ops[i]; !o.failed() {
					buf = append(buf, d(o, &w.phases[i]))
				}
			}
		}
		return buf
	}
	between := func(from, to int) []int64 {
		return interval(func(_ *wop, ph *[obs.NumPhases]int64) int64 { return ph[to] - ph[from] })
	}
	in := interval(func(o *wop, ph *[obs.NumPhases]int64) int64 { return ph[obs.PhaseRead] - o.flush })
	l["wire.in_us.mean"], l["wire.in_us.p99"] = mean(in)/1e3, quantiles(in, 0.99)[0]/1e3
	outw := interval(func(o *wop, ph *[obs.NumPhases]int64) int64 { return o.ack - ph[obs.PhaseDone] })
	l["wire.out_us.mean"], l["wire.out_us.p99"] = mean(outw)/1e3, quantiles(outw, 0.99)[0]/1e3
	q := quantiles(between(obs.PhaseRead, obs.PhaseAdmit), 0.50, 0.999, 1)
	l["server.ingress_us.p50"], l["server.ingress_us.p999"], l["server.ingress_us.max"] = q[0]/1e3, q[1]/1e3, q[2]/1e3
	l["server.complete_us.mean"] = mean(between(obs.PhaseLand, obs.PhaseDone)) / 1e3
	percentiles(l, "pump.queue_us", between(obs.PhaseAdmit, obs.PhasePending))
	percentiles(l, "sched.pending_us", between(obs.PhasePending, obs.PhaseLaunch))
	percentiles(l, "sched.exec_us", between(obs.PhaseLaunch, obs.PhaseLand))
	percentiles(l, "sched.batch_delay_us", between(obs.PhasePending, obs.PhaseLand))

	done := float64(len(out.lat))
	l["server.read_syscalls_per_op"] = float64(after.ReadSyscalls-before.ReadSyscalls) / done
	l["server.write_syscalls_per_op"] = float64(after.WriteSyscalls-before.WriteSyscalls) / done
	if b := after.Batches - before.Batches; b > 0 {
		l["sched.mean_batch"] = float64(after.BatchedOps-before.BatchedOps) / float64(b)
	}
	var maxDone, sumDone int64
	for i := range after.PerShard {
		d := after.PerShard[i].Completed - before.PerShard[i].Completed
		maxDone = max(maxDone, d)
		sumDone += d
	}
	if sumDone > 0 {
		l["shard.imbalance"] = float64(maxDone) * float64(len(after.PerShard)) / float64(sumDone)
	}
	l["admission.predicted_p999_us"] = float64(after.AdmitPredictedP999NS) / 1e3
	l["admission.twin_residual_pct"] = after.TwinResidualPct
	l["admission.shed"] = float64(after.Shed - before.Shed)
	l["conform.headroom_max"] = after.ConformHeadroom
	l["conform.max_landings"] = float64(after.ConformMaxLandings)
	if len(ws.late) > 0 {
		l["gen.late_p99_us"] = quantiles(ws.late, 0.99)[0] / 1e3
	}

	var met sched.Metrics
	for _, sh := range ws.srv.Router().Shards() {
		m := sh.Runtime().Metrics()
		met.OpsSubmitted += m.OpsSubmitted
		met.SuccessfulSteals += m.SuccessfulSteals
		met.FailedSteals += m.FailedSteals
		met.Parks += m.Parks
	}
	if met.OpsSubmitted > 0 {
		ops := float64(met.OpsSubmitted)
		l["sched.steals_per_op"] = float64(met.SuccessfulSteals) / ops
		l["sched.failed_steals_per_op"] = float64(met.FailedSteals) / ops
		l["sched.parks_per_op"] = float64(met.Parks) / ops
	}
}

// lemma2 returns the most batch landings inside any op's wait on one
// runtime. A count above two is printed but does not fail the run: the
// scheduler takes an op's pending stamp before it publishes the op, so
// a worker preempted between the two carries a stamp older than its
// publish, and a batch launched in that gap counts as a third landing
// although Lemma 2 held.
func lemma2(waits []check.Wait) int {
	n, err := check.Lemma2(waits)
	if err != nil {
		fmt.Printf("lemma2: %v\n", err)
	}
	return n
}

// percentiles reports the p50 and p99 of per-op intervals in ns as
// name.p50 and name.p99 in µs.
func percentiles(l map[string]float64, name string, ns []int64) {
	q := quantiles(ns, 0.50, 0.99)
	l[name+".p50"], l[name+".p99"] = q[0]/1e3, q[1]/1e3
}

// The wire-closed workload: two pre-dialed connections each pipeline
// closedDepth requests against batcherd at its serve defaults (1 shard,
// Window 32, QueueCap 8×P, admission off). The traffic is 90% Get and
// 10% Put on a hashmap preloaded with half of closedKeys uniform keys,
// so the edge (reactor syscall coalescing, saturation parking, launch
// linger) does the work and the structure almost none.
const (
	closedKeys  = 1 << 16
	closedRound = 4096 // operations per connection per round
)

var wireClosed = &wireSpec{
	name: "wire-closed",
	cfg:  server.Config{Shards: 1, Window: 32},
	preload: func(r *rng.Rand, conn int) []wop {
		// Together the connections preload half of the key space, each
		// a quarter drawn from its own residue class mod 2.
		var ops []wop
		for _, i := range r.Perm(closedKeys / 2)[:closedKeys/4] {
			k := int64(2*i + conn)
			ops = append(ops, wop{ds: server.DSHashmap, op: server.OpInsert, key: k, val: value(k)})
		}
		return ops
	},
	next: func(r *rng.Rand) wop {
		k := int64(r.Uint64() % closedKeys)
		if r.Float64() < 0.9 {
			return wop{ds: server.DSHashmap, op: server.OpLookup, key: k}
		}
		return wop{ds: server.DSHashmap, op: server.OpInsert, key: k, val: value(k)}
	},
	warm:    closedRound,
	measure: measureClosed,
}

// measureClosed runs whole rounds of closedRound operations per
// connection until the run's length has passed.
func measureClosed(ws *wireRun, m *meter) error {
	return ws.eachConn(func(_ int, w *wconn) error {
		for first := true; first || m.running(); first = false {
			from := len(w.ops)
			for j := 0; j < closedRound; j++ {
				w.add(ws.spec.next(w.r))
			}
			if err := w.closed(from); err != nil {
				return err
			}
		}
		return nil
	})
}

func runWireClosed(cfg config) (*outcome, error) { return runWire(wireClosed, cfg) }

// The wire-open workload: seeded Poisson arrivals at openRate, well
// under capacity, over two connections, against 2 shards with admission
// on. The SLO is far above any latency seen, so the admission sampler
// runs but never sheds. Keys are zipf over openKeys; the traffic is
// write-heavy on the ordered structures (skiplist and tree23 inserts
// and lookups) plus counter increments, so idle-worker and reactor
// wake-up, the shard router, the sampler and ordered-structure writes
// do the work. It sends no Succ: on a sharded server Succ answers from
// the query key's shard alone and misses smaller successors held by the
// other shard, which the Succ check rejects on most seeds.
const (
	openRate    = 5000 // ops/s over both connections
	openKeys    = 1 << 16
	openZipfS   = 1.1
	openPreload = 2048 // keys per ordered structure per connection
)

var openZipf = newZipf(openKeys, openZipfS)

var wireOpen = &wireSpec{
	name: "wire-open",
	cfg:  server.Config{Shards: 2, Window: 32, SLO: time.Second},
	preload: func(r *rng.Rand, conn int) []wop {
		var ops []wop
		for _, ds := range []uint8{server.DSSkiplist, server.DSTree23} {
			for j := 0; j < openPreload; j++ {
				k := int64(r.Uint64() % openKeys)
				ops = append(ops, wop{ds: ds, op: server.OpInsert, key: k, val: value(k)})
			}
		}
		return ops
	},
	next: func(r *rng.Rand) wop {
		k := openZipf.sample(r)
		x := r.Float64()
		switch {
		case x < 0.30:
			return wop{ds: server.DSSkiplist, op: server.OpInsert, key: k, val: value(k)}
		case x < 0.45:
			return wop{ds: server.DSSkiplist, op: server.OpLookup, key: k}
		case x < 0.70:
			return wop{ds: server.DSTree23, op: server.OpInsert, key: k, val: value(k)}
		case x < 0.85:
			return wop{ds: server.DSTree23, op: server.OpLookup, key: k}
		default:
			return wop{ds: server.DSCounter, op: server.OpInsert, val: 1}
		}
	},
	warm:    1024,
	prepare: planOpen,
	measure: measureOpen,
}

// arrival is one scheduled request: its offset from the start of the
// measured phase and where it sits in its connection's history.
type arrival struct {
	at   int64
	conn int
	idx  int
}

// planOpen precomputes the open loop's schedule from the seed:
// openRate × seconds requests with exponential gaps, dealt to the
// connections in turn.
func planOpen(ws *wireRun, cfg config) {
	r := rng.New(cfg.seed ^ 0xa11ce)
	ws.plan = make([]arrival, int(openRate*cfg.seconds.Seconds()))
	var t float64
	for i := range ws.plan {
		t += -math.Log(1-r.Float64()) / openRate * 1e9
		c := i % len(ws.conns)
		ws.plan[i] = arrival{at: int64(t), conn: c, idx: ws.conns[c].add(ws.spec.next(ws.conns[c].r))}
	}
}

// measureOpen sends the planned requests on schedule, whatever the
// responses do. Each request
// is timed from its due time, so a stall in the server or the sender
// counts against every request it delays; how late the sender ran is
// kept apart as gen.late.
func measureOpen(ws *wireRun, m *meter) error {
	start := m.t0

	var wg sync.WaitGroup
	errs := make([]error, len(ws.conns)+1)
	for ci, w := range ws.conns {
		n := len(w.ops) - ws.start[ci]
		wg.Add(1)
		go func(ci int, w *wconn) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				if err := w.recv(); err != nil {
					errs[ci] = err
					return
				}
			}
		}(ci, w)
	}
	ws.late = make([]int64, 0, len(ws.plan))
	errs[len(ws.conns)] = sendOnSchedule(ws, ws.plan, start)
	if errs[len(ws.conns)] != nil {
		// Unblock the receivers: the server will never answer the
		// requests that were not sent.
		for _, w := range ws.conns {
			w.c.Close()
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sendOnSchedule is the open loop's sender. It sleeps with nanosleep on
// a locked thread: the Go timer rounds sleeps under a millisecond up to
// one, which would make the sender itself the largest source of delay.
func sendOnSchedule(ws *wireRun, plan []arrival, start int64) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for _, a := range plan {
		due := start + a.at
		if d := due - obs.Now(); d > 0 {
			ts := syscall.NsecToTimespec(d)
			for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
			}
		}
		w := ws.conns[a.conn]
		o := &w.ops[a.idx]
		o.due = due
		o.send = obs.Now()
		o.flush = o.send
		ws.late = append(ws.late, o.send-due)
		if err := w.send(a.idx); err != nil {
			return err
		}
		if err := w.c.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func runWireOpen(cfg config) (*outcome, error) { return runWire(wireOpen, cfg) }

// zipf samples keys in [0, n) with probability proportional to
// 1/rank^s. Rank i maps to key i·stride mod n for an odd stride near
// n/φ (n is a power of two, so the map is one to one), which spreads
// the hot keys over the key space and over the shards.
type zipf struct {
	cdf    []float64
	n      int64
	stride int64
}

func newZipf(n int64, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n), n: n, stride: int64(float64(n)*0.6180339887498949) | 1}
	total := 0.0
	for i := range z.cdf {
		total += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	return z
}

func (z *zipf) sample(r *rng.Rand) int64 {
	rank := min(sort.SearchFloat64s(z.cdf, r.Float64()), len(z.cdf)-1)
	return int64(rank) * z.stride % z.n
}
