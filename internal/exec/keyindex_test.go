package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refIndex is the map reference the flat index is driven against:
// positions are insertion ranks, as keyIndex assigns them.
type refIndex map[string]int

func refKey(key []int32) string { return fmt.Sprint(key) }

// drive puts (or, for odd ops, only gets) every key in order against
// both indexes and fails on the first disagreement, then re-reads every
// key ever put.
func drive(t testing.TB, k *keyIndex, keys [][]int32, getOnly func(i int) bool) {
	t.Helper()
	ref := refIndex{}
	for i, key := range keys {
		want, seen := ref[refKey(key)]
		if getOnly != nil && getOnly(i) {
			got, ok := k.get(key)
			if ok != seen || (ok && got != want) {
				t.Fatalf("op %d get(%v) = %d,%v; want %d,%v", i, key, got, ok, want, seen)
			}
			continue
		}
		if !seen {
			want = len(ref)
			ref[refKey(key)] = want
		}
		got, added := k.put(key)
		if got != want || added == seen {
			t.Fatalf("op %d put(%v) = %d,%v; want %d,%v", i, key, got, added, want, !seen)
		}
		if k.len() != len(ref) {
			t.Fatalf("op %d: len %d, want %d", i, k.len(), len(ref))
		}
	}
	for _, key := range keys {
		want, seen := ref[refKey(key)]
		got, ok := k.get(key)
		if ok != seen || (ok && got != want) {
			t.Fatalf("final get(%v) = %d,%v; want %d,%v", key, got, ok, want, seen)
		}
	}
	checkResolve(t, k, keys, ref)
}

// checkResolve runs the batch resolve pass (getRows, getCol for one
// column) over keys laid out as columns, starting at an offset row,
// against the map reference, then the slot pass (putRows, putCol for
// one column) over the same columns into a fresh index with k's
// domains: every key must get its first-put position, flagged added
// exactly at its first occurrence.
func checkResolve(t testing.TB, k *keyIndex, keys [][]int32, ref refIndex) {
	t.Helper()
	if k.ncols == 0 {
		return
	}
	const lo = 3
	cols := make([][]int32, k.ncols)
	for c := range cols {
		cols[c] = make([]int32, lo, lo+len(keys))
		for _, key := range keys {
			cols[c] = append(cols[c], key[c])
		}
	}
	out := make([]int32, len(keys))
	k.getRows(cols, lo, out, make([]int32, k.ncols))
	for j, key := range keys {
		want, seen := ref[refKey(key)]
		if !seen {
			want = -1
		}
		if int(out[j]) != want {
			t.Fatalf("getRows row %d (%v) = %d, want %d", j, key, out[j], want)
		}
	}
	fresh := newKeyIndex(k.ncols, k.hint, k.doms[:min(k.ncols, maxRadixCols)]...)
	added := make([]bool, len(keys))
	anyAdded := fresh.putRows(cols, lo, out, added, make([]int32, k.ncols))
	put := refIndex{}
	for j, key := range keys {
		want, seen := put[refKey(key)]
		if !seen {
			want = len(put)
			put[refKey(key)] = want
		}
		if int(out[j]) != want || added[j] == seen {
			t.Fatalf("putRows row %d (%v) = %d,%v; want %d,%v", j, key, out[j], added[j], want, !seen)
		}
	}
	if anyAdded != (len(keys) > 0) || fresh.len() != len(put) {
		t.Fatalf("putRows: anyAdded %v over %d keys, len %d; want %d", anyAdded, len(keys), fresh.len(), len(put))
	}
}

func TestKeyIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	randKeys := func(n, ncols int, domain int32) [][]int32 {
		keys := make([][]int32, n)
		for i := range keys {
			keys[i] = make([]int32, ncols)
			for c := range keys[i] {
				keys[i][c] = rng.Int31n(domain) - domain/2
			}
		}
		return keys
	}
	seq := func(lo, hi int32) [][]int32 {
		var keys [][]int32
		for v := lo; v < hi; v++ {
			keys = append(keys, []int32{v})
		}
		return keys
	}
	// inDomain draws n keys with column c in [0, doms[c]).
	inDomain := func(n int, doms ...int32) [][]int32 {
		keys := make([][]int32, n)
		for i := range keys {
			keys[i] = make([]int32, len(doms))
			for c, d := range doms {
				keys[i][c] = rng.Int31n(d)
			}
		}
		return keys
	}
	cases := []struct {
		name  string
		ncols int
		hint  int
		keys  [][]int32
		dense bool    // mode expected at the end
		doms  []int32 // declared domains (none when nil)
		radix bool    // radix mode expected at the end
	}{
		{"keyless", 0, 0, [][]int32{{}, {}, {}}, false, nil, false},
		{"one-col zero first", 1, 0, [][]int32{{0}, {0}, {1}, {0}}, true, nil, false},
		{"one-col negatives", 1, 0, [][]int32{{-1}, {math.MinInt32}, {-1}, {math.MaxInt32}, {0}}, false, nil, false},
		{"one-col dense ascending", 1, 0, seq(0, 5000), true, nil, false},
		{"one-col dense descending from a high id", 1, 0, append(seq(90000, 90100), seq(89000, 90000)...), true, nil, false},
		{"one-col dense random order", 1, 4, randKeys(20000, 1, 3000), true, nil, false},
		// 300 dense ids, then one far outside: the index must rehash into
		// the table and keep every position.
		{"one-col late outlier switches mode", 1, 0, append(seq(0, 300), []int32{1 << 30}, []int32{7}, []int32{-(1 << 30)}), false, nil, false},
		{"one-col sparse", 1, 0, randKeys(5000, 1, math.MaxInt32), false, nil, false},
		{"two-col all ones bits", 2, 0, [][]int32{{-1, -1}, {0, 0}, {-1, 0}, {0, -1}, {-1, -1}, {0, 0}}, false, nil, false},
		{"two-col growth", 2, 0, randKeys(40000, 2, 600), false, nil, false},
		{"three-col", 3, 0, randKeys(20000, 3, 12), false, nil, false},
		{"five-col", 5, 100, randKeys(20000, 5, 4), false, nil, false},
		{"five-col same low bits", 5, 0, [][]int32{{0, 0, 0, 0, 0}, {0, 0, 0, 0, 1 << 16}, {1 << 16, 0, 0, 0, 0}, {0, 0, 0, 0, 0}}, false, nil, false},
		{"huge hint", 2, math.MaxInt, randKeys(100, 2, 50), false, nil, false},
		{"huge hint one-col", 1, math.MaxInt, [][]int32{{5}, {1 << 29}, {5}}, false, nil, false},
		// Declared domains: multi-column keys whose domain product fits
		// directCells are radix addressed, whatever the hint; a
		// one-column key is dense whatever its domain.
		{"one-col declared domain", 1, 0, inDomain(3000, 40000), true, []int32{40000}, false},
		{"radix two-col", 2, 0, inDomain(5000, 50, 40), false, []int32{50, 40}, true},
		{"radix three-col with a domain-1 column", 3, 0, inDomain(3000, 7, 1, 9), false, []int32{7, 1, 9}, true},
		{"radix product exactly at the floor", 2, 0, inDomain(4000, 256, 256), false, []int32{256, 256}, true},
		{"radix product exactly at the cap", 2, 0, inDomain(4000, 512, 1024), false, []int32{512, 1024}, true},
		{"radix product within slack × hint", 2, 20000, inDomain(4000, 400, 200), false, []int32{400, 200}, true},
		{"radix product one past the cap", 2, 20000, inDomain(4000, 1, directCells+1), false, []int32{1, directCells + 1}, false},
		{"radix five-col", 5, 0, inDomain(4000, 3, 4, 5, 6, 7), false, []int32{3, 4, 5, 6, 7}, true},
		{"radix key outside its domain switches mode", 2, 0,
			append(inDomain(500, 10, 10), []int32{10, 0}, []int32{-1, 3}, []int32{4, 4}), false, []int32{10, 10}, false},
		{"radix wide key outside its domain switches mode", 4, 0,
			append(inDomain(500, 4, 3, 4, 5), []int32{0, 0, 0, 5}, []int32{3, 2, 3, 5}, []int32{1, 1, 1, 1}), false, []int32{4, 3, 4, 5}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := newKeyIndex(tc.ncols, tc.hint, tc.doms...)
			drive(t, k, tc.keys, func(i int) bool { return i%3 == 2 })
			if k.isDense != tc.dense || k.isRadix != tc.radix {
				t.Fatalf("dense, radix mode = %v, %v; want %v, %v", k.isDense, k.isRadix, tc.dense, tc.radix)
			}
			// A reset index answers like a new one.
			k.reset()
			if _, ok := k.get(tc.keys[0]); ok || k.len() != 0 {
				t.Fatal("reset index still holds keys")
			}
			drive(t, k, tc.keys, nil)
		})
	}
}

// TestKeyIndexGrowth crosses several doublings from an unhinted table
// and checks the positions survive every rehash.
func TestKeyIndexGrowth(t *testing.T) {
	k := newKeyIndex(2, 0)
	const n = 1 << 12
	for i := 0; i < n; i++ {
		if pos, added := k.put([]int32{int32(i), int32(-i)}); pos != i || !added {
			t.Fatalf("put %d = %d,%v", i, pos, added)
		}
	}
	if 3*len(k.keys) < 4*n || 3*len(k.keys) > 8*n {
		t.Fatalf("table of %d slots for %d entries: load factor outside (⅜, ¾]", len(k.keys), n)
	}
	for i := 0; i < n; i++ {
		if pos, ok := k.get([]int32{int32(i), int32(-i)}); !ok || pos != i {
			t.Fatalf("get %d = %d,%v", i, pos, ok)
		}
	}
}

// TestKeyIndexAllocs pins the allocation contract of the probe loops: a
// get, and a put of a key already present, allocate nothing — in dense
// mode, in table mode, and for wide keys confirmed against the arena.
func TestKeyIndexAllocs(t *testing.T) {
	for _, ncols := range []int{1, 2, 5} {
		k := newKeyIndex(ncols, 0)
		key := make([]int32, ncols)
		for v := int32(0); v < 1000; v++ {
			for c := range key {
				key[c] = v * int32(c+1)
			}
			k.put(key)
		}
		if ncols == 1 {
			k.put([]int32{1 << 30}) // and once more in table mode below
		}
		for c := range key {
			key[c] = 500 * int32(c+1)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, ok := k.get(key); !ok {
				t.Fatal("key lost")
			}
			if _, added := k.put(key); added {
				t.Fatal("existing key added again")
			}
		}); n != 0 {
			t.Fatalf("%d-column key: %v allocations per get+put of an existing key", ncols, n)
		}
	}
	dense := newKeyIndex(1, 0)
	for v := int32(0); v < 1000; v++ {
		dense.put([]int32{v})
	}
	if !dense.isDense {
		t.Fatal("dense ids left dense mode")
	}
	key := []int32{500}
	if n := testing.AllocsPerRun(100, func() { dense.get(key); dense.put(key) }); n != 0 {
		t.Fatalf("dense mode: %v allocations per get+put of an existing key", n)
	}
}

// FuzzKeyIndex replays an arbitrary byte string as a key sequence — the
// first byte picks the key width (low bits) and whether, and which,
// domains are declared (bit 7; bits 5–6 pick the domain of every
// column), each later 4-byte group is one column value, drawn from a
// small alphabet that includes 0, −1 and the int32 extremes so
// sentinel-looking keys, out-of-domain keys and mode switches are
// common — against the map reference.
func FuzzKeyIndex(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 255, 255, 255, 255, 0, 0, 0, 128})
	f.Add([]byte{2, 255, 255, 255, 255, 255, 255, 255, 255, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{0x80 | 2<<5 | 2, 6, 0, 0, 0, 14, 0, 0, 0, 38, 0, 0, 0, 6, 0, 0, 0, 1, 0, 0, 0, 6, 0, 0, 0})
	f.Add([]byte{0x80 | 2<<5 | 3, 54, 1, 0, 0, 6, 0, 0, 0, 22, 0, 0, 0, 54, 1, 0, 0, 6, 0, 0, 0, 22, 0, 0, 0})
	f.Add([]byte{0x80 | 0<<5 | 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ncols := int(data[0] & 0x1f % 6)
		var doms []int32
		if data[0]&0x80 != 0 && ncols > 0 {
			doms = make([]int32, ncols)
			for c := range doms {
				doms[c] = []int32{1, 2, 16, 1024}[data[0]>>5&3]
			}
		}
		data = data[1:]
		var keys [][]int32
		if ncols == 0 {
			keys = [][]int32{{}, {}}
		}
		for ncols > 0 && len(data) >= 4*ncols {
			key := make([]int32, ncols)
			for c := range key {
				v := int32(binary.LittleEndian.Uint32(data[4*c:]))
				switch v & 7 { // fold most values onto a tiny, collision-prone alphabet
				case 0:
					v = 0
				case 1:
					v = -1
				case 2:
					v = math.MinInt32
				case 3:
					v = math.MaxInt32
				case 4, 5:
					v = (v >> 3) & 1023
				case 6:
					v = (v >> 3) & 15
				}
				key[c] = v
			}
			keys = append(keys, key)
			data = data[4*ncols:]
		}
		if len(keys) == 0 {
			return
		}
		drive(t, newKeyIndex(ncols, len(keys)%7, doms...), keys, func(i int) bool { return i%4 == 3 })
	})
}
