package check

import (
	"strings"
	"testing"
)

func value(k int64) int64 { return 2*k + 1 }

// expectErr fails the test unless err is non-nil and mentions want.
func expectErr(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatalf("violating history accepted, want an error mentioning %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

func TestCounter(t *testing.T) {
	if err := Counter([]int64{3, 1, 2}); err != nil {
		t.Fatalf("valid permutation rejected: %v", err)
	}
	expectErr(t, Counter([]int64{1, 3, 4}), "permutation")
	expectErr(t, Counter([]int64{1, 2, 2}), "permutation")
}

// A valid history: key 5 is inserted at [0,10], then read, then found
// by a successor query from 3.
func validHistory() []Op {
	return []Op{
		{Kind: Insert, Key: 5, OK: true, Send: 0, Ack: 10},
		{Kind: Insert, Key: 5, OK: false, Send: 5, Ack: 12},
		{Kind: Lookup, Key: 5, OK: true, Val: value(5), Send: 20, Ack: 30},
		{Kind: Lookup, Key: 7, OK: false, Send: 20, Ack: 30},
		{Kind: Succ, Key: 3, OK: true, Got: 5, Val: value(5), Send: 20, Ack: 30},
		{Kind: Succ, Key: 6, OK: false, Send: 20, Ack: 30},
	}
}

func TestKeyedAcceptsValid(t *testing.T) {
	keys, err := Keyed(validHistory(), value)
	if err != nil {
		t.Fatalf("valid history rejected: %v", err)
	}
	if len(keys) != 1 || keys[0] != 5 {
		t.Fatalf("keys = %v, want [5]", keys)
	}
}

func TestKeyedRejects(t *testing.T) {
	cases := []struct {
		name string
		edit func([]Op) []Op
		want string
	}{
		{"two newly inserted", func(h []Op) []Op { h[1].OK = true; return h }, "newly inserted"},
		{"no insert newly inserted", func(h []Op) []Op { h[0].OK = false; return h }, "newly inserted"},
		{"lookup wrong value", func(h []Op) []Op { h[2].Val = 99; return h }, "only"},
		{"lookup hit on unwritten key", func(h []Op) []Op { h[3].OK, h[3].Val = true, value(7); return h }, "before any insert"},
		{"lookup miss after acknowledged insert", func(h []Op) []Op { h[2].OK = false; return h }, "missed"},
		{"succ smaller key", func(h []Op) []Op { h[4].Key = 6; return h[:5] }, "smaller"},
		{"succ wrong value", func(h []Op) []Op { h[4].Val = 0; return h }, "only"},
		{"succ past acknowledged key", func(h []Op) []Op {
			h = append(h, Op{Kind: Insert, Key: 9, OK: true, Send: 0, Ack: 1})
			h[4].Got, h[4].Val = 9, value(9)
			return h
		}, "skipping key 5"},
		{"succ misses acknowledged key", func(h []Op) []Op { h[5].Key = 4; return h }, "found nothing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Keyed(tc.edit(validHistory()), value)
			expectErr(t, err, tc.want)
		})
	}
}

func TestPlacementAndCounts(t *testing.T) {
	of := func(k int64) int { return int(k % 2) }
	want := []int64{1, 2, 3, 4}
	if err := Placement([][]int64{{2, 4}, {1, 3}}, want, of); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
	expectErr(t, Placement([][]int64{{2, 3}, {1, 4}}, want, of), "placement says")
	expectErr(t, Placement([][]int64{{2, 4}, {1}}, want, of), "contents differ")
	expectErr(t, Placement([][]int64{{2, 4}, {1, 3, 5}}, want, of), "holds 5 keys, want 4")
	if err := Counts([]int{2, 2}, want, of); err != nil {
		t.Fatalf("valid counts rejected: %v", err)
	}
	expectErr(t, Counts([]int{2, 1}, want, of), "holds 1 keys, want 2")
	expectErr(t, Equal([]int64{1, 2}, []int64{1, 2, 3}), "holds 2 keys, want 3")
}

func TestLemma2(t *testing.T) {
	// Batch A lands at 10 and carries op a; op b arrives at 5, sees A
	// land and lands with batch B at 20: two landings, the bound.
	ok := []Wait{{Pending: 0, Land: 10}, {Pending: 5, Land: 20}}
	if n, err := Lemma2(ok); err != nil || n != 2 {
		t.Fatalf("Lemma2(valid) = %d, %v; want 2, nil", n, err)
	}
	// Op c arrives at 1 and waits through A, B and its own batch C.
	bad := append(ok, Wait{Pending: 1, Land: 30}, Wait{Pending: 25, Land: 30})
	n, err := Lemma2(bad)
	expectErr(t, err, "Lemma 2")
	if n != 3 {
		t.Fatalf("Lemma2(violating) counted %d landings, want 3", n)
	}
	expectErr(t, func() error { _, err := Lemma2([]Wait{{Pending: 9, Land: 3}}); return err }(), "before it was published")
}

func TestBatches(t *testing.T) {
	b := NewBatches(2)
	// One batch with two groups running in parallel, then the next.
	b.Enter(10, 1)
	b.Enter(10, 1)
	b.Exit()
	b.Exit()
	b.Enter(20, 2)
	b.Exit()
	if err := b.Err(); err != nil {
		t.Fatalf("valid batches rejected: %v", err)
	}

	overlap := NewBatches(2)
	overlap.Enter(10, 1)
	overlap.Enter(20, 1)
	expectErr(t, overlap.Err(), "Invariant 1")

	big := NewBatches(2)
	big.Enter(10, 2)
	big.Exit()
	big.Enter(10, 1)
	expectErr(t, big.Err(), "Invariant 2")
}
