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
	cases := []struct {
		name  string
		ncols int
		hint  int
		keys  [][]int32
		dense bool // mode expected at the end
	}{
		{"keyless", 0, 0, [][]int32{{}, {}, {}}, false},
		{"one-col zero first", 1, 0, [][]int32{{0}, {0}, {1}, {0}}, true},
		{"one-col negatives", 1, 0, [][]int32{{-1}, {math.MinInt32}, {-1}, {math.MaxInt32}, {0}}, false},
		{"one-col dense ascending", 1, 0, seq(0, 5000), true},
		{"one-col dense descending from a high id", 1, 0, append(seq(90000, 90100), seq(89000, 90000)...), true},
		{"one-col dense random order", 1, 4, randKeys(20000, 1, 3000), true},
		// 300 dense ids, then one far outside: the index must rehash into
		// the table and keep every position.
		{"one-col late outlier switches mode", 1, 0, append(seq(0, 300), []int32{1 << 30}, []int32{7}, []int32{-(1 << 30)}), false},
		{"one-col sparse", 1, 0, randKeys(5000, 1, math.MaxInt32), false},
		{"two-col all ones bits", 2, 0, [][]int32{{-1, -1}, {0, 0}, {-1, 0}, {0, -1}, {-1, -1}, {0, 0}}, false},
		{"two-col growth", 2, 0, randKeys(40000, 2, 600), false},
		{"three-col", 3, 0, randKeys(20000, 3, 12), false},
		{"five-col", 5, 100, randKeys(20000, 5, 4), false},
		{"five-col same low bits", 5, 0, [][]int32{{0, 0, 0, 0, 0}, {0, 0, 0, 0, 1 << 16}, {1 << 16, 0, 0, 0, 0}, {0, 0, 0, 0, 0}}, false},
		{"huge hint", 2, math.MaxInt, randKeys(100, 2, 50), false},
		{"huge hint one-col", 1, math.MaxInt, [][]int32{{5}, {1 << 29}, {5}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := newKeyIndex(tc.ncols, tc.hint)
			drive(t, k, tc.keys, func(i int) bool { return i%3 == 2 })
			if k.isDense != tc.dense {
				t.Fatalf("dense mode = %v, want %v", k.isDense, tc.dense)
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
// first byte picks the key width, each later 4-byte group is one column
// value, drawn from a small alphabet that includes 0, −1 and the int32
// extremes so sentinel-looking keys and mode switches are common —
// against the map reference.
func FuzzKeyIndex(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 255, 255, 255, 255, 0, 0, 0, 128})
	f.Add([]byte{2, 255, 255, 255, 255, 255, 255, 255, 255, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ncols := int(data[0] % 6)
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
				}
				key[c] = v
			}
			keys = append(keys, key)
			data = data[4*ncols:]
		}
		if len(keys) == 0 {
			return
		}
		drive(t, newKeyIndex(ncols, len(keys)%7), keys, func(i int) bool { return i%4 == 3 })
	})
}
