package replica

import (
	"bytes"
	"fmt"
	"testing"

	"fuzzyid/internal/store"
	"fuzzyid/internal/wire"
)

// TestHubRingWrapsAround pins the retention window across several
// wrap-arounds of the circular ring: after every append the hub retains
// exactly the newest retain offsets, streaming from any retained offset
// yields each later offset with its own mutation, and a cursor below the
// window reports behind.
func TestHubRingWrapsAround(t *testing.T) {
	const retain = 4
	h := NewHub(WithRetain(retain))
	for n := 1; n <= 3*retain+1; n++ {
		if _, err := h.Begin(store.DeleteMutation(fmt.Sprintf("u%d", n))); err != nil {
			t.Fatal(err)
		}
		wantBase := uint64(max(1, n-retain+1))
		if h.base != wantBase || h.next != uint64(n+1) {
			t.Fatalf("after %d appends: base %d next %d, want %d and %d", n, h.base, h.next, wantBase, n+1)
		}
		for from := uint64(1); from <= uint64(n)+1; from++ {
			var buf bytes.Buffer
			cursor := from
			behind, err := h.streamFrom(&buf, &cursor)
			if err != nil {
				t.Fatal(err)
			}
			if behind != (from < wantBase) {
				t.Fatalf("after %d appends: streamFrom(%d) behind = %v", n, from, behind)
			}
			if behind {
				continue
			}
			for off := from; off <= uint64(n); off++ {
				msg, err := wire.Receive(&buf)
				if err != nil {
					t.Fatalf("after %d appends, from %d: %v", n, from, err)
				}
				f, ok := msg.(*wire.ReplFrame)
				if !ok || f.Offset != off || f.Latest != uint64(n) || f.Mut.ID != fmt.Sprintf("u%d", off) {
					t.Fatalf("after %d appends, from %d: got %+v, want offset %d", n, from, msg, off)
				}
			}
			if buf.Len() != 0 || cursor != uint64(n)+1 {
				t.Fatalf("after %d appends, from %d: %d stray bytes, cursor %d", n, from, buf.Len(), cursor)
			}
		}
	}
}

// BenchmarkHubAppend measures one append at a full DefaultRetain ring — a
// replicating primary's steady state, paid under every tenant's mutation
// lock.
func BenchmarkHubAppend(b *testing.B) {
	h := NewHub()
	m := store.DeleteMutation("u")
	for i := 0; i < DefaultRetain; i++ {
		if _, err := h.Begin(m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Begin(m); err != nil {
			b.Fatal(err)
		}
	}
}
