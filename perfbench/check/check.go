// Package check holds the benchmark's output checkers. Each one reads a
// history recorded by the benchmark's own client (or a tally taken by
// its own wrappers) and tests a property the implicitly batched method
// must have; none compares against stored output and none calls into
// the program under test, so a fault in the program cannot also hide
// the fault in the check.
package check

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Counter checks the results of K increments by one on a counter that
// started at zero: linearizable increments return a gapless permutation
// of 1..K.
func Counter(results []int64) error {
	s := append([]int64(nil), results...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i, v := range s {
		if v != int64(i+1) {
			return fmt.Errorf("counter: sorted result %d is %d, want %d (results are not a permutation of 1..%d)", i, v, i+1, len(s))
		}
	}
	return nil
}

// Kind is an operation on a keyed structure.
type Kind uint8

const (
	// Insert writes Key with the key's value; OK reports "newly
	// inserted".
	Insert Kind = iota
	// Lookup reads Key; OK reports a hit and Val carries the value.
	Lookup
	// Succ finds the smallest key >= Key; OK reports one exists, Got
	// carries it and Val its value.
	Succ
)

// Op is one acknowledged operation on one keyed structure. Send is the
// client clock before the request was written and Ack the client clock
// after its response was read, so the operation took effect somewhere
// inside [Send, Ack].
type Op struct {
	Kind      Kind
	Key       int64
	OK        bool
	Val, Got  int64
	Send, Ack int64
}

// keyState is what the history says about one key's inserts.
type keyState struct {
	firstSend, firstAck int64
	newly               int
}

// Keyed checks the history of one keyed structure that has no deletes
// and to which every insert of key k writes value(k):
//
//   - exactly one insert per key reports "newly inserted";
//   - a lookup hit returns value(key), and some insert of the key was
//     sent before the lookup was answered;
//   - a lookup sent after an insert of its key was acknowledged hits;
//   - Succ returns a key >= its query carrying that key's value, the
//     key was inserted before Succ was answered, and no key inserted
//     and acknowledged before Succ was sent lies between the two.
//
// It returns the sorted set of inserted keys, which is what the
// structure must hold once the history is complete.
func Keyed(ops []Op, value func(int64) int64) ([]int64, error) {
	keys := map[int64]*keyState{}
	for i := range ops {
		op := &ops[i]
		if op.Kind != Insert {
			continue
		}
		ks := keys[op.Key]
		if ks == nil {
			ks = &keyState{firstSend: op.Send, firstAck: op.Ack}
			keys[op.Key] = ks
		}
		ks.firstSend = min(ks.firstSend, op.Send)
		ks.firstAck = min(ks.firstAck, op.Ack)
		if op.OK {
			ks.newly++
		}
	}
	sorted := make([]int64, 0, len(keys))
	for k, ks := range keys {
		if ks.newly != 1 {
			return nil, fmt.Errorf("key %d: %d inserts reported newly inserted, want exactly 1", k, ks.newly)
		}
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	// ackedBefore reports a key in [lo, hi) that was inserted and
	// acknowledged before t, if there is one.
	ackedBefore := func(lo, hi, t int64) (int64, bool) {
		for i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= lo }); i < len(sorted); i++ {
			k := sorted[i]
			if k >= hi {
				break
			}
			if keys[k].firstAck < t {
				return k, true
			}
		}
		return 0, false
	}

	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case Lookup:
			ks := keys[op.Key]
			if op.OK {
				if op.Val != value(op.Key) {
					return nil, fmt.Errorf("lookup %d returned value %d, but only %d was ever written", op.Key, op.Val, value(op.Key))
				}
				if ks == nil || ks.firstSend > op.Ack {
					return nil, fmt.Errorf("lookup %d hit before any insert of the key was sent", op.Key)
				}
			} else if ks != nil && ks.firstAck < op.Send {
				return nil, fmt.Errorf("lookup %d missed although an insert of the key was acknowledged %d ns before it was sent", op.Key, op.Send-ks.firstAck)
			}
		case Succ:
			if !op.OK {
				if k, ok := ackedBefore(op.Key, math.MaxInt64, op.Send); ok {
					return nil, fmt.Errorf("succ %d found nothing although key %d was acknowledged before it was sent", op.Key, k)
				}
				continue
			}
			if op.Got < op.Key {
				return nil, fmt.Errorf("succ %d returned smaller key %d", op.Key, op.Got)
			}
			if op.Val != value(op.Got) {
				return nil, fmt.Errorf("succ %d returned key %d with value %d, but only %d was ever written", op.Key, op.Got, op.Val, value(op.Got))
			}
			if ks := keys[op.Got]; ks == nil || ks.firstSend > op.Ack {
				return nil, fmt.Errorf("succ %d returned key %d before any insert of it was sent", op.Key, op.Got)
			}
			if k, ok := ackedBefore(op.Key, op.Got, op.Send); ok {
				return nil, fmt.Errorf("succ %d returned %d, skipping key %d acknowledged before it was sent", op.Key, op.Got, k)
			}
		}
	}
	return sorted, nil
}

// Placement checks a sharded structure's contents after shutdown: the
// union of the shards' sorted key lists equals want (sorted), and every
// key sits on the shard of(key) names.
func Placement(shards [][]int64, want []int64, of func(int64) int) error {
	var got []int64
	for i, ks := range shards {
		for _, k := range ks {
			if s := of(k); s != i {
				return fmt.Errorf("key %d found on shard %d, placement says shard %d", k, i, s)
			}
		}
		got = append(got, ks...)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	return Equal(got, want)
}

// Counts checks a sharded structure that reports only its size: shard
// i holds exactly the keys of want that of places on it.
func Counts(sizes []int, want []int64, of func(int64) int) error {
	exp := make([]int, len(sizes))
	for _, k := range want {
		s := of(k)
		if s < 0 || s >= len(exp) {
			return fmt.Errorf("key %d placed on shard %d of %d", k, s, len(exp))
		}
		exp[s]++
	}
	for i := range sizes {
		if sizes[i] != exp[i] {
			return fmt.Errorf("shard %d holds %d keys, want %d", i, sizes[i], exp[i])
		}
	}
	return nil
}

// Equal checks that two sorted key lists are identical.
func Equal(got, want []int64) error {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Errorf("contents differ at position %d: have key %d, want key %d", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("structure holds %d keys, want %d", len(got), len(want))
	}
	return nil
}

// Wait is one operation's stay in one runtime's pending array: its
// publish stamp and the landing stamp of the batch that carried it.
type Wait struct{ Pending, Land int64 }

// Lemma2 returns the largest number of batch landings inside any
// operation's wait (Pending, Land], counting the operation's own
// landing, and an error if it exceeds Lemma 2's bound of two. The waits
// must all come from one runtime, and every batch that landed during
// them must have carried at least one of the waits.
func Lemma2(waits []Wait) (int, error) {
	lands := make([]int64, 0, len(waits))
	for _, w := range waits {
		lands = append(lands, w.Land)
	}
	sort.Slice(lands, func(i, j int) bool { return lands[i] < lands[j] })
	uniq := lands[:0]
	for _, l := range lands {
		if len(uniq) == 0 || l != uniq[len(uniq)-1] {
			uniq = append(uniq, l)
		}
	}
	after := func(t int64) int { return sort.Search(len(uniq), func(i int) bool { return uniq[i] > t }) }
	worst, over := 0, 0
	var worstWait int64
	for _, w := range waits {
		if w.Land < w.Pending {
			return worst, fmt.Errorf("op landed at %d before it was published at %d", w.Land, w.Pending)
		}
		n := after(w.Land) - after(w.Pending)
		if n > 2 {
			over++
		}
		if n > worst {
			worst, worstWait = n, w.Land-w.Pending
		}
	}
	if over > 0 {
		return worst, fmt.Errorf("Lemma 2: %d of %d ops saw more than 2 batches land inside their wait, at most %d (in %d ns)", over, len(waits), worst, worstWait)
	}
	return worst, nil
}

// Batches checks Invariants 1 and 2 for one runtime from the RunBatch
// calls its structures execute. A batch is named by its launch stamp;
// its groups (one RunBatch call per structure) may run in parallel with
// each other, but a call of another batch must never overlap them
// (Invariant 1), and one batch carries at most P operations in total
// (Invariant 2). Safe for concurrent use.
type Batches struct {
	p      int
	mu     sync.Mutex
	active int   // RunBatch calls in progress
	launch int64 // launch stamp of the batch they belong to
	size   int   // operations seen so far in that batch
	err    error
}

// NewBatches returns a checker for a runtime of p workers.
func NewBatches(p int) *Batches { return &Batches{p: p} }

// Enter records the start of a RunBatch call of n operations belonging
// to the batch launched at launch.
func (b *Batches) Enter(launch int64, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.active > 0 && launch != b.launch:
		b.fail(fmt.Errorf("Invariant 1: batch launched at %d runs while batch launched at %d is executing", launch, b.launch))
	case launch != b.launch:
		b.launch, b.size = launch, 0
	}
	b.active++
	b.size += n
	if b.size > b.p {
		b.fail(fmt.Errorf("Invariant 2: batch launched at %d carries %d ops, P is %d", launch, b.size, b.p))
	}
}

// Exit records the end of a RunBatch call.
func (b *Batches) Exit() {
	b.mu.Lock()
	b.active--
	b.mu.Unlock()
}

func (b *Batches) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Err returns the first violation seen, or nil.
func (b *Batches) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}
