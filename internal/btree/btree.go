// Package btree implements a disk-oriented B+-tree over the page store.
//
// It plays the role of the "built-in relational composite index" that the
// RI-tree paper relies on: fixed-width multi-column integer keys, ordered
// range scans, O(log_b n) inserts and deletes, and block-granular I/O that
// is accounted by the underlying pagestore. Index entries are stored
// index-organized (the full key tuple is the entry; callers append a row id
// column to make entries unique), which matches how composite indexes
// (node, lower) and (node, upper) are used in the paper.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"ritree/internal/pagestore"
)

// Node page layout (pageSize bytes):
//
//	offset 0:  type byte (leafType or innerType)
//	offset 1:  reserved
//	offset 2:  count uint16
//	offset 4:  leaf: right-sibling page id; inner: leftmost child page id
//	offset 8:  reserved (8 bytes)
//	offset 16: entries
//
// Leaf entries are the encoded key tuples, entrySize = ncols*8 bytes each.
// Inner entries are (separator key, right child) pairs of entrySize+4 bytes;
// child i holds keys k with sep[i-1] <= k < sep[i].
const (
	leafType  = byte(1)
	innerType = byte(2)

	headerSize = 16
	childSize  = 4
)

// Meta page layout: magic, ncols, root, height, count.
const (
	metaMagic = uint32(0x52495442) // "RITB"
)

// ErrWidth is returned when a key of the wrong column count is supplied.
var ErrWidth = errors.New("btree: key has wrong number of columns")

// Tree is a B+-tree of fixed-width int64 tuples.
type Tree struct {
	st     *pagestore.Store
	meta   pagestore.PageID
	ncols  int
	root   pagestore.PageID
	height int // 1 = root is a leaf
	count  int64

	es       int // encoded entry size = ncols*8
	leafCap  int
	innerCap int // max separator keys per inner node
}

// Create allocates a new empty tree whose keys have ncols int64 columns.
// The returned tree is addressed by its meta page id (see Open).
func Create(st *pagestore.Store, ncols int) (*Tree, error) {
	if ncols < 1 || ncols > 32 {
		return nil, fmt.Errorf("btree: ncols %d out of range [1,32]", ncols)
	}
	meta, err := st.Allocate()
	if err != nil {
		return nil, err
	}
	rootID, err := st.Allocate()
	if err != nil {
		return nil, err
	}
	t := &Tree{st: st, meta: meta, ncols: ncols, root: rootID, height: 1}
	t.derive()
	if t.leafCap < 4 || t.innerCap < 4 {
		return nil, fmt.Errorf("btree: page size %d too small for %d-column keys", st.PageSize(), ncols)
	}
	p, err := st.GetMut(rootID)
	if err != nil {
		return nil, err
	}
	p.Data()[0] = leafType
	p.Release()
	if err := t.saveMeta(); err != nil {
		return nil, err
	}
	return t, nil
}

// Open loads an existing tree from its meta page.
func Open(st *pagestore.Store, meta pagestore.PageID) (*Tree, error) {
	p, err := st.Get(meta)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	d := p.Data()
	if binary.LittleEndian.Uint32(d[0:4]) != metaMagic {
		return nil, fmt.Errorf("btree: page %d is not a tree meta page", meta)
	}
	t := &Tree{
		st:     st,
		meta:   meta,
		ncols:  int(binary.LittleEndian.Uint32(d[4:8])),
		root:   pagestore.PageID(binary.LittleEndian.Uint32(d[8:12])),
		height: int(binary.LittleEndian.Uint32(d[12:16])),
		count:  int64(binary.LittleEndian.Uint64(d[16:24])),
	}
	// A meta page read from disk is untrusted: hold it to what Create
	// accepts before deriving capacities from it.
	if t.ncols < 1 || t.ncols > 32 {
		return nil, fmt.Errorf("btree: meta page %d has %d key columns, want [1,32]", meta, t.ncols)
	}
	t.derive()
	return t, nil
}

func (t *Tree) derive() {
	t.es = t.ncols * colSize
	t.leafCap = (t.st.PageSize() - headerSize) / t.es
	t.innerCap = (t.st.PageSize() - headerSize - childSize) / (t.es + childSize)
}

func (t *Tree) saveMeta() error {
	p, err := t.st.GetMut(t.meta)
	if err != nil {
		return err
	}
	d := p.Data()
	binary.LittleEndian.PutUint32(d[0:4], metaMagic)
	binary.LittleEndian.PutUint32(d[4:8], uint32(t.ncols))
	binary.LittleEndian.PutUint32(d[8:12], uint32(t.root))
	binary.LittleEndian.PutUint32(d[12:16], uint32(t.height))
	binary.LittleEndian.PutUint64(d[16:24], uint64(t.count))
	p.Release()
	return nil
}

// Meta returns the id of the tree's meta page (pass to Open).
func (t *Tree) Meta() pagestore.PageID { return t.meta }

// Cols returns the number of key columns.
func (t *Tree) Cols() int { return t.ncols }

// Len returns the number of entries in the tree.
func (t *Tree) Len() int64 { return t.count }

// Height returns the tree height in levels (1 = a single leaf).
func (t *Tree) Height() int { return t.height }

// --- node accessors -------------------------------------------------------

type nodeRef struct {
	p *pagestore.Page
	t *Tree
}

func (t *Tree) load(id pagestore.PageID) (nodeRef, error) {
	p, err := t.st.Get(id)
	if err != nil {
		return nodeRef{}, err
	}
	return nodeRef{p: p, t: t}, nil
}

func (n nodeRef) data() []byte   { return n.p.Data() }
func (n nodeRef) isLeaf() bool   { return n.data()[0] == leafType }
func (n nodeRef) count() int     { return int(binary.LittleEndian.Uint16(n.data()[2:4])) }
func (n nodeRef) setCount(c int) { binary.LittleEndian.PutUint16(n.data()[2:4], uint16(c)) }
func (n nodeRef) release()       { n.p.Release() }

// beginWrite declares the node is about to be modified. It must run before
// the first mutation (it stashes the pre-image for snapshot readers);
// within one commit epoch repeated calls are cheap no-ops.
func (n nodeRef) beginWrite() { n.p.BeginWrite() }

// next is the right sibling (leaf) or the leftmost child (inner).
func (n nodeRef) next() pagestore.PageID {
	return pagestore.PageID(binary.LittleEndian.Uint32(n.data()[4:8]))
}
func (n nodeRef) setNext(id pagestore.PageID) {
	binary.LittleEndian.PutUint32(n.data()[4:8], uint32(id))
}

// leafEntry returns the encoded key bytes of leaf entry i.
func (n nodeRef) leafEntry(i int) []byte {
	off := headerSize + i*n.t.es
	return n.data()[off : off+n.t.es]
}

// innerKey returns the encoded separator key i.
func (n nodeRef) innerKey(i int) []byte {
	off := headerSize + i*(n.t.es+childSize)
	return n.data()[off : off+n.t.es]
}

// child returns child i (0 = leftmost, stored in the header).
func (n nodeRef) child(i int) pagestore.PageID {
	if i == 0 {
		return n.next()
	}
	off := headerSize + (i-1)*(n.t.es+childSize) + n.t.es
	return pagestore.PageID(binary.LittleEndian.Uint32(n.data()[off : off+childSize]))
}

func (n nodeRef) setChild(i int, id pagestore.PageID) {
	if i == 0 {
		n.setNext(id)
		return
	}
	off := headerSize + (i-1)*(n.t.es+childSize) + n.t.es
	binary.LittleEndian.PutUint32(n.data()[off:off+childSize], uint32(id))
}

// leafSearch returns the position of the first entry >= key and whether an
// exact match exists there.
func (n nodeRef) leafSearch(key []byte) (int, bool) {
	c := n.count()
	i := sort.Search(c, func(i int) bool {
		return compareEncoded(n.leafEntry(i), key) >= 0
	})
	if i < c && compareEncoded(n.leafEntry(i), key) == 0 {
		return i, true
	}
	return i, false
}

// innerSearch returns the child index to descend for key: the number of
// separators <= key.
func (n nodeRef) innerSearch(key []byte) int {
	c := n.count()
	return sort.Search(c, func(i int) bool {
		return compareEncoded(n.innerKey(i), key) > 0
	})
}

// insertLeafAt shifts entries right and writes key at position i.
func (n nodeRef) insertLeafAt(i int, key []byte) {
	n.beginWrite()
	es := n.t.es
	c := n.count()
	base := headerSize
	copy(n.data()[base+(i+1)*es:base+(c+1)*es], n.data()[base+i*es:base+c*es])
	copy(n.data()[base+i*es:base+(i+1)*es], key)
	n.setCount(c + 1)
}

// removeLeafAt deletes entry i.
func (n nodeRef) removeLeafAt(i int) {
	n.beginWrite()
	es := n.t.es
	c := n.count()
	base := headerSize
	copy(n.data()[base+i*es:], n.data()[base+(i+1)*es:base+c*es])
	n.setCount(c - 1)
}

// insertInnerAt inserts separator key with right child at position i.
func (n nodeRef) insertInnerAt(i int, key []byte, right pagestore.PageID) {
	n.beginWrite()
	ps := n.t.es + childSize
	c := n.count()
	base := headerSize
	copy(n.data()[base+(i+1)*ps:base+(c+1)*ps], n.data()[base+i*ps:base+c*ps])
	copy(n.data()[base+i*ps:base+i*ps+n.t.es], key)
	binary.LittleEndian.PutUint32(n.data()[base+i*ps+n.t.es:], uint32(right))
	n.setCount(c + 1)
}

// removeInnerAt deletes separator i together with its right child pointer.
func (n nodeRef) removeInnerAt(i int) {
	n.beginWrite()
	ps := n.t.es + childSize
	c := n.count()
	base := headerSize
	copy(n.data()[base+i*ps:], n.data()[base+(i+1)*ps:base+c*ps])
	n.setCount(c - 1)
}

// --- insert ----------------------------------------------------------------

// Insert adds key to the tree. It returns false if an identical tuple is
// already present (the tree stores a set of tuples).
func (t *Tree) Insert(key []int64) (bool, error) {
	if len(key) != t.ncols {
		return false, ErrWidth
	}
	ek := make([]byte, t.es)
	encodeKeyInto(ek, key)
	inserted, split, sep, right, err := t.insertRec(t.root, t.height, ek)
	if err != nil {
		return false, err
	}
	if split {
		// Grow a new root.
		newRootID, err := t.st.Allocate()
		if err != nil {
			return false, err
		}
		nr, err := t.load(newRootID)
		if err != nil {
			return false, err
		}
		nr.beginWrite()
		nr.data()[0] = innerType
		nr.setCount(0)
		nr.setChild(0, t.root)
		nr.insertInnerAt(0, sep, right)
		nr.release()
		t.root = newRootID
		t.height++
	}
	if inserted {
		t.count++
		if err := t.saveMeta(); err != nil {
			return false, err
		}
	} else if split {
		if err := t.saveMeta(); err != nil {
			return false, err
		}
	}
	return inserted, nil
}

// insertRec inserts ek under page id at the given level. If the node split,
// it returns the separator key and the new right sibling's id.
func (t *Tree) insertRec(id pagestore.PageID, level int, ek []byte) (inserted, split bool, sep []byte, right pagestore.PageID, err error) {
	n, err := t.load(id)
	if err != nil {
		return false, false, nil, 0, err
	}
	if level == 1 { // leaf
		defer n.release()
		i, found := n.leafSearch(ek)
		if found {
			return false, false, nil, 0, nil
		}
		if n.count() < t.leafCap {
			n.insertLeafAt(i, ek)
			return true, false, nil, 0, nil
		}
		// Split leaf, then insert into the proper half.
		sep, right, err = t.splitLeaf(n)
		if err != nil {
			return false, false, nil, 0, err
		}
		if compareEncoded(ek, sep) >= 0 {
			r, err2 := t.load(right)
			if err2 != nil {
				return false, false, nil, 0, err2
			}
			j, _ := r.leafSearch(ek)
			r.insertLeafAt(j, ek)
			r.release()
		} else {
			j, _ := n.leafSearch(ek)
			n.insertLeafAt(j, ek)
		}
		return true, true, sep, right, nil
	}
	// Inner node.
	ci := n.innerSearch(ek)
	childID := n.child(ci)
	n.release() // release during recursion to keep pin depth low
	inserted, csplit, csep, cright, err := t.insertRec(childID, level-1, ek)
	if err != nil || !csplit {
		return inserted, false, nil, 0, err
	}
	n, err = t.load(id)
	if err != nil {
		return false, false, nil, 0, err
	}
	defer n.release()
	ci = n.innerSearch(csep)
	if n.count() < t.innerCap {
		n.insertInnerAt(ci, csep, cright)
		return inserted, false, nil, 0, nil
	}
	// Split this inner node, then place the promoted separator.
	sep, right, err = t.splitInner(n)
	if err != nil {
		return false, false, nil, 0, err
	}
	if compareEncoded(csep, sep) >= 0 {
		r, err2 := t.load(right)
		if err2 != nil {
			return false, false, nil, 0, err2
		}
		j := r.innerSearch(csep)
		r.insertInnerAt(j, csep, cright)
		r.release()
	} else {
		j := n.innerSearch(csep)
		n.insertInnerAt(j, csep, cright)
	}
	return inserted, true, sep, right, nil
}

// splitLeaf moves the upper half of n into a new right sibling and returns
// the separator (first key of the right node) and the new node's id.
func (t *Tree) splitLeaf(n nodeRef) ([]byte, pagestore.PageID, error) {
	rightID, err := t.st.Allocate()
	if err != nil {
		return nil, 0, err
	}
	r, err := t.load(rightID)
	if err != nil {
		return nil, 0, err
	}
	defer r.release()
	n.beginWrite()
	r.beginWrite()
	r.data()[0] = leafType
	c := n.count()
	mid := c / 2
	es := t.es
	copy(r.data()[headerSize:], n.data()[headerSize+mid*es:headerSize+c*es])
	r.setCount(c - mid)
	r.setNext(n.next())
	n.setCount(mid)
	n.setNext(rightID)
	sep := make([]byte, es)
	copy(sep, r.leafEntry(0))
	return sep, rightID, nil
}

// splitInner pushes the middle separator of n up and moves the upper
// separators into a new right sibling.
func (t *Tree) splitInner(n nodeRef) ([]byte, pagestore.PageID, error) {
	rightID, err := t.st.Allocate()
	if err != nil {
		return nil, 0, err
	}
	r, err := t.load(rightID)
	if err != nil {
		return nil, 0, err
	}
	defer r.release()
	n.beginWrite()
	r.beginWrite()
	r.data()[0] = innerType
	c := n.count()
	mid := c / 2
	sep := make([]byte, t.es)
	copy(sep, n.innerKey(mid))
	// Right node: leftmost child = child(mid+1); keys mid+1..c-1.
	r.setChild(0, n.child(mid+1))
	ps := t.es + childSize
	copy(r.data()[headerSize:], n.data()[headerSize+(mid+1)*ps:headerSize+c*ps])
	r.setCount(c - mid - 1)
	n.setCount(mid)
	return sep, rightID, nil
}

// Contains reports whether the exact tuple key is present.
func (t *Tree) Contains(key []int64) (bool, error) {
	if len(key) != t.ncols {
		return false, ErrWidth
	}
	ek := make([]byte, t.es)
	encodeKeyInto(ek, key)
	id := t.root
	for level := t.height; level > 1; level-- {
		n, err := t.load(id)
		if err != nil {
			return false, err
		}
		id = n.child(n.innerSearch(ek))
		n.release()
	}
	n, err := t.load(id)
	if err != nil {
		return false, err
	}
	defer n.release()
	_, found := n.leafSearch(ek)
	return found, nil
}

// Drop frees every page of the tree, including its meta page. The tree must
// not be used afterwards.
func (t *Tree) Drop() error {
	if err := t.dropRec(t.root, t.height); err != nil {
		return err
	}
	return t.st.Free(t.meta)
}

func (t *Tree) dropRec(id pagestore.PageID, level int) error {
	if level > 1 {
		n, err := t.load(id)
		if err != nil {
			return err
		}
		children := make([]pagestore.PageID, 0, n.count()+1)
		for i := 0; i <= n.count(); i++ {
			children = append(children, n.child(i))
		}
		n.release()
		for _, c := range children {
			if err := t.dropRec(c, level-1); err != nil {
				return err
			}
		}
	}
	return t.st.Free(id)
}
