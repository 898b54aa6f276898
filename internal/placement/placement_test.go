package placement_test

import (
	"hash/fnv"
	"testing"

	"etsc/internal/placement"
)

// TestIndexMatchesFNV pins the contract to the stdlib FNV-1a reference:
// the inlined hash must be exactly hash/fnv's 32-bit FNV-1a, mod n.
func TestIndexMatchesFNV(t *testing.T) {
	ids := []string{"", "a", "coop7", "words-00", "gunpoint-17", "chicken-99",
		"s-000123", "Ω-streams/№7", "\x00\xff"}
	for _, id := range ids {
		for _, n := range []int{1, 2, 3, 5, 16, 1000} {
			h := fnv.New32a()
			h.Write([]byte(id))
			want := int(h.Sum32() % uint32(n))
			if got := placement.Index(id, n); got != want {
				t.Errorf("Index(%q, %d) = %d, want %d", id, n, got, want)
			}
		}
	}
}

// TestIndexPinnedValues freezes sample placements: these exact values are
// the wire-and-disk contract (persisted checkpoints, external routers); a
// change here is a flag-day break, not a refactor.
func TestIndexPinnedValues(t *testing.T) {
	pins := []struct {
		id   string
		n    int
		want int
	}{
		{"", 16, 0x811c9dc5 % 16},
		{"coop7", 3, 0x3cbfad3d % 3},
		{"words-00", 16, 0x2a0468ed % 16},
		{"", 4, 1}, // FNV-1a offset basis 2166136261 % 4
		{"coop7", 4, 1},
		{"coop7", 16, 13},
		{"words-00", 4, 1},
		{"gunpoint-01", 16, 7},
	}
	for _, p := range pins {
		if got := placement.Index(p.id, p.n); got != p.want {
			t.Errorf("Index(%q, %d) = %d, want %d", p.id, p.n, got, p.want)
		}
	}
}

// TestIndexRejectsEmptyTable pins the n >= 1 precondition.
func TestIndexRejectsEmptyTable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Index(id, 0) did not panic")
		}
	}()
	placement.Index("x", 0)
}
