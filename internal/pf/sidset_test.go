package pf

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"pfirewall/internal/mac"
)

// mapSIDSet is the map-backed SID set SIDSet's sorted slice replaced: the
// reference its searches and merges must agree with.
type mapSIDSet struct {
	sids   map[mac.SID]bool
	negate bool
}

func newMapSIDSet(negate bool, sids []mac.SID) mapSIDSet {
	m := make(map[mac.SID]bool, len(sids))
	for _, s := range sids {
		m[s] = true
	}
	return mapSIDSet{m, negate}
}

func (ms mapSIDSet) contains(s mac.SID) bool { return ms.sids[s] != ms.negate }

func (ms mapSIDSet) sorted() []mac.SID {
	out := make([]mac.SID, 0, len(ms.sids))
	for s := range ms.sids {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

func (ms mapSIDSet) String(tbl *mac.SIDTable) string {
	var names []string
	for _, s := range ms.sorted() {
		names = append(names, string(tbl.Label(s)))
	}
	body := "{" + strings.Join(names, "|") + "}"
	if ms.negate {
		return "~" + body
	}
	return body
}

func mapSubset(inner, outer map[mac.SID]bool) bool {
	for s := range inner {
		if !outer[s] {
			return false
		}
	}
	return true
}

func mapDisjoint(xs, ys map[mac.SID]bool) bool {
	for s := range xs {
		if ys[s] {
			return false
		}
	}
	return true
}

// TestSIDSetMatchesMapReference pins the sorted-slice SIDSet to the map
// semantics over random sets: empty, negated, long enough for the binary
// search, and built from repeated SIDs (worldgen writes
// -s {scl_dom015_t|scl_dom015_t}; a merge over an undeduplicated slice
// would read {a,a} ⊄ {a}).
func TestSIDSetMatchesMapReference(t *testing.T) {
	tbl := mac.NewSIDTable()
	var universe []mac.SID
	for i := 0; i < 24; i++ {
		universe = append(universe, tbl.SID(mac.Label(fmt.Sprintf("set%02d_t", i))))
	}
	outside := tbl.SID("outside_t")
	rng := &diffRNG{s: 0x5eed}
	draw := func() []mac.SID {
		// Short sets draw from a few labels, so repeats are common; long
		// ones cross the binary-search threshold.
		n, span := rng.intn(5), 4
		if rng.intn(4) == 0 {
			n, span = 9+rng.intn(16), len(universe)
		}
		out := make([]mac.SID, n)
		for i := range out {
			out[i] = universe[rng.intn(span)]
		}
		return out
	}
	for iter := 0; iter < 3000; iter++ {
		a, b := draw(), draw()
		an, bn := rng.intn(3) == 0, rng.intn(3) == 0
		sa, sb := NewSIDSet(an, a...), NewSIDSet(bn, b...)
		ma, mb := newMapSIDSet(an, a), newMapSIDSet(bn, b)
		if len(a) > 0 {
			a[0] = outside // the set must not alias its arguments
		}

		if got, want := sa.SIDs(), ma.sorted(); !slices.Equal(got, want) {
			t.Fatalf("iter %d: SIDs() = %v, want %v (sorted, unique)", iter, got, want)
		}
		for _, s := range append(universe, outside) {
			if got, want := sa.Contains(s), ma.contains(s); got != want {
				t.Fatalf("iter %d: %s.Contains(%d) = %v, want %v", iter, sa.String(tbl), s, got, want)
			}
		}
		if got, want := subsetOf(sa.sids, sb.sids), mapSubset(ma.sids, mb.sids); got != want {
			t.Fatalf("iter %d: subsetOf(%v, %v) = %v, want %v", iter, sa.sids, sb.sids, got, want)
		}
		if got, want := disjointFrom(sa.sids, sb.sids), mapDisjoint(ma.sids, mb.sids); got != want {
			t.Fatalf("iter %d: disjointFrom(%v, %v) = %v, want %v", iter, sa.sids, sb.sids, got, want)
		}
		if got, want := sa.String(tbl), ma.String(tbl); got != want {
			t.Fatalf("iter %d: String() = %q, want %q", iter, got, want)
		}
	}

	x := universe[3]
	if !subsetOf(NewSIDSet(false, x, x).sids, NewSIDSet(false, x).sids) {
		t.Error("{x|x} must be a subset of {x}")
	}
	var none *SIDSet
	if !none.Contains(x) || none.String(tbl) != "any" {
		t.Error("a nil set must match anything and render as any")
	}
	empty := NewSIDSet(true)
	if !empty.Contains(x) || len(empty.SIDs()) != 0 || empty.String(tbl) != "~{}" {
		t.Errorf("~{} must match anything: contains=%v sids=%v string=%q", empty.Contains(x), empty.SIDs(), empty.String(tbl))
	}
}

// TestSIDSetSIDsAllocationFree: SIDs hands out the set's own slice.
func TestSIDSetSIDsAllocationFree(t *testing.T) {
	set := NewSIDSet(false, 9, 3, 5, 3)
	var sink []mac.SID
	if n := testing.AllocsPerRun(100, func() { sink = set.SIDs() }); n != 0 {
		t.Errorf("SIDs allocates %.1f/op, want 0", n)
	}
	if !slices.Equal(sink, []mac.SID{3, 5, 9}) {
		t.Errorf("SIDs() = %v, want [3 5 9]", sink)
	}
}
