package exec

// keyIndex maps join and group keys — short vectors of int32 column
// values — to dense positions 0, 1, 2, … in first-put order. It backs
// the hash-join build table and the aggregation state, so hash join,
// hash group-by and the fused join+aggregate all probe it once per
// lookup.
//
// One open-addressing table serves every key width: power-of-two
// capacity, Fibonacci (multiplicative) hashing, linear probing, the
// 64-bit table keys in one slice and the positions in a parallel
// []int32 whose zero value marks an empty slot — so no key value is
// reserved as a sentinel. Keys of at most two columns are packed
// straight into the 64-bit table key; wider keys store a 64-bit hash of
// their values there and are confirmed against a by-position copy of
// the full key, so no lookup or insert allocates per key.
//
// A key whose declared domains (relation.Attr.Domain) multiply to at
// most directCells cells is direct-addressed from the start: positions
// live in an array indexed by the key's mixed-radix code over its
// domains — for a single column, value − lo (dense mode); for several,
// the code itself (radix mode; DESIGN.md, "Batch execution"). The array
// is sized from the domains alone, never from a row count, so an
// aggregate of a quarter million groups slots each key with one array
// read wherever it runs. A key outside its declared domains rehashes
// the index into the table. Single-column keys without a declared
// domain start in dense mode over the observed value range, which is
// kept while it stays within denseSlack × the entry count (or
// denseFloor, for small indexes), and rehash into the table the moment
// a key falls outside it. Both switches are one-way.
type keyIndex struct {
	ncols int
	n     int // entries so far; the position the next new key gets
	hint  int // expected entries, sizing the first table allocation

	// Table mode.
	keys  []uint64 // packed key (ncols ≤ 2) or hash of the key (wider)
	pos   []int32  // position + 1 per slot; 0 marks an empty slot
	shift uint     // 64 − log2(len(keys))
	wide  []int32  // ncols > 2: full keys row-major by position

	// The direct-address modes keep positions + 1 in dense; 0 marks
	// absent. Dense mode (ncols == 1 until the first out-of-range key)
	// indexes it by value − lo; radix mode (ncols ≥ 2 until the first key
	// outside its declared domains) by the key's mixed-radix code over
	// doms, in an array of the domain product.
	isDense    bool
	isRadix    bool
	dense      []int32
	lo         int64 // dense mode: value of dense[0]
	kmin, kmax int64 // dense mode: observed value range (valid when n > 0)
	doms       [maxRadixCols]int32
}

const (
	// directCells caps a direct-addressed key's domain product: its
	// array of int32 positions takes at most 2 MiB.
	directCells = 1 << 19
	// denseSlack and denseFloor bound the dense mode of a key without a
	// declared domain: its observed value range may span at most
	// denseSlack slots per entry, or denseFloor slots (256 KiB of
	// positions) whatever the entry count.
	denseSlack = 4
	denseFloor = 1 << 16
	// maxRadixCols is the widest key radix mode addresses.
	maxRadixCols = 8
	// maxKeyIndexHint caps the table preallocated from a size hint, so a
	// huge (or hostile) hint costs at most a few MiB up front; the table
	// still grows on demand.
	maxKeyIndexHint = 1 << 18
	// fibMul is 2^64 / φ, the Fibonacci hashing multiplier.
	fibMul = 0x9E3779B97F4A7C15
)

// newKeyIndex returns an empty index over ncols-column keys expecting
// about sizeHint entries (0 when unknown), which sizes the first table.
// domains, when given, are the columns' declared domain sizes
// (relation.Attr.Domain; values in [0, domain)): a key whose domain
// product is at most directCells starts direct-addressed over all of it.
func newKeyIndex(ncols, sizeHint int, domains ...int32) *keyIndex {
	if sizeHint > maxKeyIndexHint {
		sizeHint = maxKeyIndexHint
	}
	k := &keyIndex{ncols: ncols, hint: sizeHint, isDense: ncols == 1}
	if cells := domainCells(ncols, domains); cells > 0 && cells <= directCells {
		copy(k.doms[:], domains)
		k.dense = make([]int32, cells)
		k.isDense, k.isRadix = ncols == 1, ncols > 1
	}
	return k
}

// domainCells returns the product of an ncols-column key's declared
// domains, saturating past directCells, or 0 when they are not all
// declared or the key is wider than radix mode addresses.
func domainCells(ncols int, domains []int32) int64 {
	if ncols < 1 || ncols > maxRadixCols || len(domains) != ncols {
		return 0
	}
	cells := int64(1)
	for _, d := range domains {
		if d <= 0 {
			return 0
		}
		cells = min(cells*int64(d), directCells+1)
	}
	return cells
}

// len returns the number of distinct keys put so far.
func (k *keyIndex) len() int { return k.n }

// reset empties the index, keeping its allocations and its mode.
func (k *keyIndex) reset() {
	k.n = 0
	k.wide = k.wide[:0]
	clear(k.dense)
	clear(k.pos)
}

// resetKeys is reset given every key put, row-major in vals: a direct
// array that few keys occupy is cleared cell by cell rather than whole.
func (k *keyIndex) resetKeys(vals []int32) {
	if !(k.isDense || k.isRadix) || 8*k.n >= len(k.dense) {
		k.reset()
		return
	}
	for off := 0; off < len(vals); off += k.ncols {
		if k.isDense {
			k.dense[int64(vals[off])-k.lo] = 0
		} else if c, ok := k.radixCode(vals[off : off+k.ncols]); ok {
			k.dense[c] = 0
		}
	}
	k.n = 0
}

// radixCode returns key's mixed-radix code over the declared domains,
// or ok=false when a value lies outside its domain.
func (k *keyIndex) radixCode(key []int32) (code int, ok bool) {
	for j, v := range key {
		d := k.doms[j]
		if uint32(v) >= uint32(d) {
			return 0, false
		}
		code = code*int(d) + int(v)
	}
	return code, true
}

// packKey packs a key of at most two columns into the table key.
func packKey(key []int32) uint64 {
	switch len(key) {
	case 0:
		return 0
	case 1:
		return uint64(uint32(key[0]))
	default:
		return uint64(uint32(key[0])) | uint64(uint32(key[1]))<<32
	}
}

// hashKey mixes a wide key's values into the 64-bit table key.
func hashKey(key []int32) uint64 {
	h := uint64(len(key))
	for _, v := range key {
		h = (h ^ uint64(uint32(v))) * fibMul
		h ^= h >> 29
	}
	return h
}

// tableKey returns the 64-bit table key for key.
func (k *keyIndex) tableKey(key []int32) uint64 {
	if k.ncols <= 2 {
		return packKey(key)
	}
	return hashKey(key)
}

// get returns key's position, or ok=false when it was never put. key
// must have ncols values.
func (k *keyIndex) get(key []int32) (pos int, ok bool) {
	if k.isDense {
		if i := uint64(int64(key[0]) - k.lo); i < uint64(len(k.dense)) {
			p := k.dense[i]
			return int(p) - 1, p != 0
		}
		return -1, false
	}
	if k.isRadix {
		if c, ok := k.radixCode(key); ok {
			p := k.dense[c]
			return int(p) - 1, p != 0
		}
		return -1, false
	}
	if len(k.keys) == 0 {
		return -1, false
	}
	tk := k.tableKey(key)
	mask := uint64(len(k.keys) - 1)
	for i := (tk * fibMul) >> k.shift; ; i = (i + 1) & mask {
		p := k.pos[i]
		if p == 0 {
			return -1, false
		}
		if k.keys[i] == tk && k.sameWide(int(p)-1, key) {
			return int(p) - 1, true
		}
	}
}

// put returns key's position, assigning the next one (the count of
// distinct keys before the call) when key is new.
func (k *keyIndex) put(key []int32) (pos int, added bool) {
	if k.isDense {
		if pos, added, ok := k.putDense(key[0]); ok {
			return pos, added
		}
		// The key broke the dense range: k is a table now.
	} else if k.isRadix {
		if c, ok := k.radixCode(key); ok {
			if p := k.dense[c]; p != 0 {
				return int(p) - 1, false
			}
			k.n++
			k.dense[c] = int32(k.n)
			return k.n - 1, true
		}
		// The key lies outside its declared domains: k is a table now.
		k.unradix()
	}
	if (k.n+1)*4 > len(k.keys)*3 {
		k.grow()
	}
	tk := k.tableKey(key)
	mask := uint64(len(k.keys) - 1)
	for i := (tk * fibMul) >> k.shift; ; i = (i + 1) & mask {
		p := k.pos[i]
		if p == 0 {
			k.keys[i], k.pos[i] = tk, int32(k.n+1)
			if k.ncols > 2 {
				k.wide = append(k.wide, key...)
			}
			k.n++
			return k.n - 1, true
		}
		if k.keys[i] == tk && k.sameWide(int(p)-1, key) {
			return int(p) - 1, false
		}
	}
}

// sameWide confirms a table-key match of a wide key against the stored
// full key; packed keys are their own confirmation.
func (k *keyIndex) sameWide(pos int, key []int32) bool {
	if k.ncols <= 2 {
		return true
	}
	for j, v := range k.wide[pos*k.ncols : (pos+1)*k.ncols] {
		if key[j] != v {
			return false
		}
	}
	return true
}

// insertSlot places an entry known to be absent (rehashing).
func (k *keyIndex) insertSlot(tk uint64, p int32) {
	mask := uint64(len(k.keys) - 1)
	i := (tk * fibMul) >> k.shift
	for k.pos[i] != 0 {
		i = (i + 1) & mask
	}
	k.keys[i], k.pos[i] = tk, p
}

// grow doubles the table (or allocates the first one, sized for the
// hint) and rehashes. The table is kept at most ¾ full — linear probing
// then averages 2.5 slots per hit — rather than ½: a 12-byte slot per
// group adds up when a leaf aggregate and the result both hold hundreds
// of thousands of groups.
func (k *keyIndex) grow() {
	oldKeys, oldPos := k.keys, k.pos
	size := 2 * len(oldKeys)
	if size == 0 {
		size = k.firstTableSize()
	}
	k.allocTable(size)
	for i, p := range oldPos {
		if p != 0 {
			k.insertSlot(oldKeys[i], p)
		}
	}
}

// firstTableSize is the smallest power-of-two capacity that holds the
// hinted (and current) entry count at most ¾ full.
func (k *keyIndex) firstTableSize() int {
	size := 16
	for 3*size < 4*max(k.hint, k.n+1) {
		size *= 2
	}
	return size
}

func (k *keyIndex) allocTable(size int) {
	k.keys = make([]uint64, size)
	k.pos = make([]int32, size)
	k.shift = 64
	for s := size; s > 1; s >>= 1 {
		k.shift--
	}
}

// putDense is put in dense mode. ok=false means v fell outside the range
// the dense mode may cover: the index has been rehashed into table mode
// and the caller must insert v there.
func (k *keyIndex) putDense(v int32) (pos int, added, ok bool) {
	x := int64(v)
	if i := uint64(x - k.lo); i < uint64(len(k.dense)) {
		if p := k.dense[i]; p != 0 {
			return int(p) - 1, false, true
		}
		k.dense[i] = int32(k.n + 1)
	} else {
		lo, hi := x, x
		if k.n > 0 {
			lo, hi = min(k.kmin, x), max(k.kmax, x)
		}
		span := hi - lo + 1
		if span > denseFloor && span > denseSlack*int64(k.n+1) {
			k.undense()
			return 0, false, false
		}
		// Re-window around the observed range with half a span of
		// headroom on either side, so in-order and random arrivals both
		// re-window O(log range) times.
		window := make([]int32, max(2*span, 16))
		newLo := lo - (int64(len(window))-span)/2
		if k.n > 0 {
			copy(window[k.kmin-newLo:], k.dense[k.kmin-k.lo:k.kmax-k.lo+1])
		}
		k.dense, k.lo = window, newLo
		k.dense[x-newLo] = int32(k.n + 1)
	}
	if k.n == 0 {
		k.kmin, k.kmax = x, x
	} else {
		k.kmin, k.kmax = min(k.kmin, x), max(k.kmax, x)
	}
	k.n++
	return k.n - 1, true, true
}

// undense rehashes a dense index into table mode, keeping positions.
func (k *keyIndex) undense() {
	k.allocTable(k.firstTableSize())
	for i, p := range k.dense {
		if p != 0 {
			k.insertSlot(uint64(uint32(int32(k.lo+int64(i)))), p)
		}
	}
	k.isDense, k.dense = false, nil
}

// unradix rehashes a radix index into table mode, keeping positions:
// each occupied cell's key is decoded from its code.
func (k *keyIndex) unradix() {
	k.allocTable(k.firstTableSize())
	if k.ncols > 2 {
		k.wide = make([]int32, k.n*k.ncols)
	}
	key := make([]int32, k.ncols)
	for c, p := range k.dense {
		if p == 0 {
			continue
		}
		for j, rest := k.ncols-1, c; j >= 0; j-- {
			d := int(k.doms[j])
			key[j] = int32(rest % d)
			rest /= d
		}
		if k.ncols > 2 {
			copy(k.wide[int(p-1)*k.ncols:], key)
		}
		k.insertSlot(k.tableKey(key), p)
	}
	k.isRadix, k.dense = false, nil
}

// getCol is the resolve pass over a column of single-column keys: out[j]
// becomes the position of vals[j], or −1 when it was never put. The
// dense-array read and the packed-key table probe are inlined, so the
// loop's loads are independent of each other.
func (k *keyIndex) getCol(vals []int32, out []int32) {
	out = out[:len(vals)]
	if k.isDense {
		d, lo := k.dense, k.lo
		for j, v := range vals {
			p := int32(0)
			if i := uint64(int64(v) - lo); i < uint64(len(d)) {
				p = d[i]
			}
			out[j] = p - 1
		}
		return
	}
	if len(k.keys) == 0 {
		for j := range out {
			out[j] = -1
		}
		return
	}
	keys, pos, shift := k.keys, k.pos, k.shift
	mask := uint64(len(keys) - 1)
	for j, v := range vals {
		tk := uint64(uint32(v))
		p := int32(0)
		for i := (tk * fibMul) >> shift; ; i = (i + 1) & mask {
			q := pos[i]
			if q == 0 {
				break
			}
			if keys[i] == tk {
				p = q
				break
			}
		}
		out[j] = p - 1
	}
}

// getRows is getCol over keys spread across columns: out[j] becomes the
// position of the key in row lo+j of cols (one slice per key column),
// or −1. key is scratch of ncols values.
func (k *keyIndex) getRows(cols [][]int32, lo int, out []int32, key []int32) {
	if k.ncols == 1 {
		k.getCol(cols[0][lo:lo+len(out)], out)
		return
	}
	for j := range out {
		for m, col := range cols {
			key[m] = col[lo+j]
		}
		p, ok := k.get(key)
		if !ok {
			p = -1
		}
		out[j] = int32(p)
	}
}

// getKeys is getRows over keys stored row-major in vals, ncols values
// each.
func (k *keyIndex) getKeys(vals []int32, out []int32) {
	if k.ncols == 1 {
		k.getCol(vals, out)
		return
	}
	w := k.ncols
	for j := range out {
		p, ok := k.get(vals[j*w : (j+1)*w])
		if !ok {
			p = -1
		}
		out[j] = int32(p)
	}
}

// putCol is the slot pass over a column of single-column keys: out[j]
// becomes the position of vals[j] and added[j] whether that put created
// it, keys new to k taking positions in row order; the result reports
// whether any did. A key already in the dense array is resolved inline.
func (k *keyIndex) putCol(vals, out []int32, added []bool) (anyAdded bool) {
	out, added = out[:len(vals)], added[:len(vals)]
	for j, v := range vals {
		if k.isDense {
			if i := uint64(int64(v) - k.lo); i < uint64(len(k.dense)) && k.dense[i] != 0 {
				out[j], added[j] = k.dense[i]-1, false
				continue
			}
		}
		key := [1]int32{v}
		p, a := k.put(key[:])
		out[j], added[j] = int32(p), a
		anyAdded = anyAdded || a
	}
	return anyAdded
}

// putRows is putCol over keys spread across columns: row lo+j of cols
// (one slice per key column) is key j. key is scratch of ncols values.
func (k *keyIndex) putRows(cols [][]int32, lo int, out []int32, added []bool, key []int32) (anyAdded bool) {
	if k.ncols == 1 {
		return k.putCol(cols[0][lo:lo+len(out)], out, added)
	}
	for j := range out {
		for m, col := range cols {
			key[m] = col[lo+j]
		}
		if p, ok := k.radixHit(key); ok {
			out[j], added[j] = p, false
			continue
		}
		p, a := k.put(key)
		out[j], added[j] = int32(p), a
		anyAdded = anyAdded || a
	}
	return anyAdded
}

// putKeys is putRows over keys stored row-major in vals, ncols values
// each.
func (k *keyIndex) putKeys(vals, out []int32, added []bool) (anyAdded bool) {
	w := k.ncols
	for j := range out {
		key := vals[j*w : (j+1)*w]
		if p, ok := k.radixHit(key); ok {
			out[j], added[j] = p, false
			continue
		}
		p, a := k.put(key)
		out[j], added[j] = int32(p), a
		anyAdded = anyAdded || a
	}
	return anyAdded
}

// radixHit resolves a key already in a radix-mode index with one array
// read, so the slot passes call put only for new keys.
func (k *keyIndex) radixHit(key []int32) (pos int32, ok bool) {
	if !k.isRadix {
		return 0, false
	}
	c, in := k.radixCode(key)
	if !in {
		return 0, false
	}
	p := k.dense[c]
	return p - 1, p != 0
}
