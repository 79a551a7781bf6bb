// The hash table behind hash join and hash aggregation: open addressing with
// linear probing over dense key ids. Each distinct key gets an id in
// first-appearance order; the table stores the id's full hash and the row
// that first held the key. Keys are never copied or boxed: that row indexes
// the key vectors the table was built over (the build batch of a join, the
// input batch of an aggregation), and a lookup compares the stored hash, then
// the key columns typed — integer codes when both sides share a dictionary —
// with datum.Equal's semantics (1 = 1.0, -0.0 = 0.0, NULL = NULL; the key
// hashes put every NaN in one group). A join checks a key's NULLs before it
// builds or probes, so only grouping ever looks up a NULL key.
package exec

import (
	"math/bits"

	"repro/internal/datum"
)

// hashTable maps key hashes to dense ids. Slots hold id+1 (0 is empty) and
// are at most half full, so an unsuccessful probe ends after a short run.
type hashTable struct {
	slots  []int32
	mask   uint64
	hashes []uint64 // per id: the key's full hash
	rows   []int32  // per id: the row of the key vectors holding the key
}

// newHashTable returns a table sized for about hint ids without growing.
func newHashTable(hint int) *hashTable {
	n := 16
	if hint > 4 {
		n = 1 << bits.Len(uint(2*hint-1))
	}
	return &hashTable{
		slots:  make([]int32, n),
		mask:   uint64(n - 1),
		hashes: make([]uint64, 0, hint),
		rows:   make([]int32, 0, hint),
	}
}

// mixHash spreads every bit of a key hash over the low bits. The key hashes
// are FNV-style, and for small integers (hashed as float bits) their low bits
// are all alike, so a hash is mixed before it is masked or taken modulo.
func mixHash(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// slotOf is a key hash's home slot.
func (t *hashTable) slotOf(h uint64) uint64 { return mixHash(h) & t.mask }

// len returns the number of ids.
func (t *hashTable) len() int { return len(t.rows) }

// lookup returns the id whose key equals probe row i (hash h), or -1 and the
// empty slot where that key belongs.
func (t *hashTable) lookup(h uint64, eq keyEq, i int32) (id int32, slot uint64) {
	for s := t.slotOf(h); ; s = (s + 1) & t.mask {
		e := t.slots[s]
		if e == 0 {
			return -1, s
		}
		if t.hashes[e-1] == h && eq.equal(i, t.rows[e-1]) {
			return e - 1, s
		}
	}
}

// insert adds a new id at the empty slot a failed lookup returned, for the
// key held by row of the key vectors, and returns the id.
func (t *hashTable) insert(slot, h uint64, row int32) int32 {
	id := int32(len(t.rows))
	t.slots[slot] = id + 1
	t.hashes = append(t.hashes, h)
	t.rows = append(t.rows, row)
	if 2*len(t.rows) > len(t.slots) {
		t.grow()
	}
	return id
}

// grow doubles the slots and re-places every id from its stored hash.
func (t *hashTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	t.mask = uint64(len(t.slots) - 1)
	for id, h := range t.hashes {
		s := t.slotOf(h)
		for t.slots[s] != 0 {
			s = (s + 1) & t.mask
		}
		t.slots[s] = int32(id) + 1
	}
}

// keyEq compares key columns of a probe row (vectors a) with a table row
// (vectors b), column by column.
type keyEq []colEq

func (k keyEq) equal(i, j int32) bool {
	for c := range k {
		if !k[c].equal(i, j) {
			return false
		}
	}
	return true
}

// newKeyEq pairs probe key columns aOff of a with table key columns bOff of b.
// An aggregation passes its input batch as both sides.
func newKeyEq(a []*datum.Vec, aOff []int, b []*datum.Vec, bOff []int) keyEq {
	k := make(keyEq, len(aOff))
	for c := range aOff {
		k[c] = newColEq(a[aOff[c]], b[bOff[c]])
	}
	return k
}

// eqMode is the typed comparison a pair of key vectors allows.
type eqMode uint8

const (
	eqBoxed    eqMode = iota // datum.Equal over reconstructed datums
	eqInts                   // same-kind ints or bools, or codes of one dictionary
	eqFloats                 // float against float
	eqIntFloat               // int probe against float key
	eqFloatInt               // float probe against int key
	eqStrs                   // plain strings, or dictionary values, on either side
)

// colEq compares one key column: row i of a against row j of b.
type colEq struct {
	mode   eqMode
	a, b   *datum.Vec
	an, bn datum.Bitmap // NULL bitmaps (nil when a side has no NULLs)
	as, bs []string     // string payloads: Strs, or the dictionary's values
}

func newColEq(a, b *datum.Vec) colEq {
	e := colEq{a: a, b: b, an: a.Nulls(), bn: b.Nulls()}
	if a.Boxed() || b.Boxed() {
		return e
	}
	ka, kb := a.Kind(), b.Kind()
	switch {
	case a.Dict != nil && a.Dict == b.Dict:
		e.mode = eqInts
	case ka == datum.KindString && kb == datum.KindString:
		e.mode = eqStrs
		e.as, e.bs = a.Strs, b.Strs
		if a.Dict != nil {
			e.as = a.Dict.Vals
		}
		if b.Dict != nil {
			e.bs = b.Dict.Vals
		}
	case ka != kb:
		switch {
		case ka == datum.KindInt && kb == datum.KindFloat:
			e.mode = eqIntFloat
		case ka == datum.KindFloat && kb == datum.KindInt:
			e.mode = eqFloatInt
		}
	case ka == datum.KindInt || ka == datum.KindBool:
		e.mode = eqInts
	case ka == datum.KindFloat:
		e.mode = eqFloats
	}
	return e
}

// floatEq is datum.Compare(x, y) == 0 for floats: neither is below the
// other, so -0.0 equals 0.0 and NaN equals any number.
func floatEq(x, y float64) bool { return !(x < y || x > y) }

func (e *colEq) equal(i, j int32) bool {
	if e.mode == eqBoxed {
		return datum.Equal(e.a.D(int(i)), e.b.D(int(j)))
	}
	if an, bn := e.an.Get(int(i)), e.bn.Get(int(j)); an || bn {
		return an == bn
	}
	switch e.mode {
	case eqInts:
		return e.a.Ints[i] == e.b.Ints[j]
	case eqFloats:
		return floatEq(e.a.Floats[i], e.b.Floats[j])
	case eqIntFloat:
		return floatEq(float64(e.a.Ints[i]), e.b.Floats[j])
	case eqFloatInt:
		return floatEq(e.a.Floats[i], float64(e.b.Ints[j]))
	}
	var x, y string
	if e.a.Dict != nil {
		x = e.as[e.a.Ints[i]]
	} else {
		x = e.as[i]
	}
	if e.b.Dict != nil {
		y = e.bs[e.b.Ints[j]]
	} else {
		y = e.bs[j]
	}
	return x == y
}

// keyBytes is the modeled width of row i's key, as datum.Row.Size counts it.
func keyBytes(vecs []*datum.Vec, keyOff []int, i int32) int64 {
	var n int64
	for _, o := range keyOff {
		n += int64(vecs[o].D(int(i)).Size())
	}
	return n
}
