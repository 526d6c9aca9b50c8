package rel

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ritree/internal/pagestore"
)

// Heap page layout:
//
//	offset 0:  type byte (heapPageType)
//	offset 1:  reserved
//	offset 2:  live-row count uint16
//	offset 4:  next heap page in the table chain (uint32)
//	offset 8:  reserved (8 bytes)
//	offset 16: occupancy bitmap (slotsPerPage bits, rounded up to bytes)
//	then:      slotsPerPage fixed-width rows of ncols*8 bytes
const (
	heapPageType   = byte(3)
	heapHeaderSize = 16
)

// heapGeometry computes how many fixed-width rows fit in a page.
func heapGeometry(pageSize, rowSize int) (slots, bitmapBytes, rowBase int) {
	slots = (pageSize - heapHeaderSize) * 8 / (rowSize*8 + 1)
	for slots > 0 && heapHeaderSize+(slots+7)/8+slots*rowSize > pageSize {
		slots--
	}
	if slots > 0xffff {
		slots = 0xffff // RowID reserves 16 bits for the slot
	}
	bitmapBytes = (slots + 7) / 8
	rowBase = heapHeaderSize + bitmapBytes
	return slots, bitmapBytes, rowBase
}

// heap manages the row pages of one table.
type heap struct {
	st     *pagestore.Store
	ncols  int
	header pagestore.PageID // table header page

	rowSize     int
	slots       int
	bitmapBytes int
	rowBase     int

	// Cached header fields; flushed through writeHeader.
	firstPage pagestore.PageID
	lastPage  pagestore.PageID
	rowCount  int64
	freeHint  pagestore.PageID // page that most recently gained a free slot
	// chk is the content checksum: XOR of RowChecksum(row, rid) over the
	// live rows. Headers written before the field existed read as 0; the
	// consumers of the checksum (domain-index staleness checks) treat a
	// matching pair of maintained values as the signal, so a legacy zero
	// on both sides stays compatible.
	chk uint64
}

// Table header page layout: magic, first, last, rowCount, freeHint, chk.
const heapHeaderMagic = uint32(0x52495448) // "RITH"

func createHeap(st *pagestore.Store, ncols int) (*heap, error) {
	header, err := st.Allocate()
	if err != nil {
		return nil, err
	}
	h := &heap{st: st, ncols: ncols, header: header, rowSize: ncols * 8}
	h.slots, h.bitmapBytes, h.rowBase = heapGeometry(st.PageSize(), h.rowSize)
	if h.slots < 1 {
		return nil, fmt.Errorf("rel: page size %d too small for %d-column rows", st.PageSize(), ncols)
	}
	first, err := h.newPage()
	if err != nil {
		return nil, err
	}
	h.firstPage, h.lastPage, h.freeHint = first, first, first
	return h, h.writeHeader()
}

func openHeap(st *pagestore.Store, header pagestore.PageID, ncols int) (*heap, error) {
	h := &heap{st: st, ncols: ncols, header: header, rowSize: ncols * 8}
	h.slots, h.bitmapBytes, h.rowBase = heapGeometry(st.PageSize(), h.rowSize)
	p, err := st.Get(header)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	d := p.Data()
	if binary.LittleEndian.Uint32(d[0:4]) != heapHeaderMagic {
		return nil, fmt.Errorf("rel: page %d is not a table header", header)
	}
	h.firstPage = pagestore.PageID(binary.LittleEndian.Uint32(d[4:8]))
	h.lastPage = pagestore.PageID(binary.LittleEndian.Uint32(d[8:12]))
	h.rowCount = int64(binary.LittleEndian.Uint64(d[12:20]))
	h.freeHint = pagestore.PageID(binary.LittleEndian.Uint32(d[20:24]))
	h.chk = binary.LittleEndian.Uint64(d[24:32])
	return h, nil
}

func (h *heap) writeHeader() error {
	p, err := h.st.GetMut(h.header)
	if err != nil {
		return err
	}
	d := p.Data()
	binary.LittleEndian.PutUint32(d[0:4], heapHeaderMagic)
	binary.LittleEndian.PutUint32(d[4:8], uint32(h.firstPage))
	binary.LittleEndian.PutUint32(d[8:12], uint32(h.lastPage))
	binary.LittleEndian.PutUint64(d[12:20], uint64(h.rowCount))
	binary.LittleEndian.PutUint32(d[20:24], uint32(h.freeHint))
	binary.LittleEndian.PutUint64(d[24:32], h.chk)
	p.Release()
	return nil
}

func (h *heap) newPage() (pagestore.PageID, error) {
	id, err := h.st.Allocate()
	if err != nil {
		return 0, err
	}
	p, err := h.st.GetMut(id)
	if err != nil {
		return 0, err
	}
	p.Data()[0] = heapPageType
	p.Release()
	return id, nil
}

func pageCount(d []byte) int       { return int(binary.LittleEndian.Uint16(d[2:4])) }
func setPageCount(d []byte, c int) { binary.LittleEndian.PutUint16(d[2:4], uint16(c)) }
func pageNext(d []byte) pagestore.PageID {
	return pagestore.PageID(binary.LittleEndian.Uint32(d[4:8]))
}
func setPageNext(d []byte, id pagestore.PageID) {
	binary.LittleEndian.PutUint32(d[4:8], uint32(id))
}

func (h *heap) slotUsed(d []byte, slot int) bool {
	return d[heapHeaderSize+slot/8]&(1<<(slot%8)) != 0
}
func (h *heap) setSlot(d []byte, slot int, used bool) {
	if used {
		d[heapHeaderSize+slot/8] |= 1 << (slot % 8)
	} else {
		d[heapHeaderSize+slot/8] &^= 1 << (slot % 8)
	}
}

func (h *heap) rowAt(d []byte, slot int) []byte {
	off := h.rowBase + slot*h.rowSize
	return d[off : off+h.rowSize]
}

func encodeRow(dst []byte, row []int64) {
	for i, v := range row {
		binary.LittleEndian.PutUint64(dst[i*8:], uint64(v))
	}
}

func decodeRow(dst []int64, src []byte) {
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[i*8:]))
	}
}

// insert stores row and returns its RowID.
func (h *heap) insert(row []int64) (RowID, error) {
	if len(row) != h.ncols {
		return 0, ErrRowWidth
	}
	// Try the free hint first, then the last page, then grow.
	for _, cand := range []pagestore.PageID{h.freeHint, h.lastPage} {
		if cand == pagestore.InvalidPage {
			continue
		}
		rid, ok, err := h.tryInsertInto(cand, row)
		if err != nil {
			return 0, err
		}
		if ok {
			h.rowCount++
			h.chk ^= RowChecksum(row, rid)
			return rid, h.writeHeader()
		}
	}
	id, err := h.newPage()
	if err != nil {
		return 0, err
	}
	lp, err := h.st.GetMut(h.lastPage)
	if err != nil {
		return 0, err
	}
	setPageNext(lp.Data(), id)
	lp.Release()
	h.lastPage = id
	h.freeHint = id
	rid, ok, err := h.tryInsertInto(id, row)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("rel: fresh heap page %d rejected insert", id)
	}
	h.rowCount++
	h.chk ^= RowChecksum(row, rid)
	return rid, h.writeHeader()
}

func (h *heap) tryInsertInto(id pagestore.PageID, row []int64) (RowID, bool, error) {
	p, err := h.st.Get(id)
	if err != nil {
		return 0, false, err
	}
	defer p.Release()
	d := p.Data()
	if d[0] != heapPageType {
		return 0, false, fmt.Errorf("rel: page %d is not a heap page", id)
	}
	c := pageCount(d)
	if c >= h.slots {
		return 0, false, nil
	}
	for slot := 0; slot < h.slots; slot++ {
		if !h.slotUsed(d, slot) {
			p.BeginWrite()
			encodeRow(h.rowAt(d, slot), row)
			h.setSlot(d, slot, true)
			setPageCount(d, c+1)
			return makeRowID(uint32(id), slot), true, nil
		}
	}
	return 0, false, fmt.Errorf("rel: heap page %d count %d but no free slot", id, c)
}

// rowPageErr classifies a failure to pin the page holding rid: a page id
// that was never allocated names no row (ErrNoSuchRow), like a dead slot;
// any other store failure is returned, wrapped, so a page that cannot be
// read is never mistaken for a missing row.
func rowPageErr(rid RowID, err error) error {
	if errors.Is(err, pagestore.ErrInvalidPage) {
		return ErrNoSuchRow
	}
	return fmt.Errorf("rel: row at page %d slot %d: %w", rid.page(), rid.slot(), err)
}

// get reads the row at rid into dst (which must have ncols room).
func (h *heap) get(rid RowID, dst []int64) error {
	pid := pagestore.PageID(rid.page())
	slot := rid.slot()
	if pid == pagestore.InvalidPage || slot >= h.slots {
		return ErrNoSuchRow
	}
	p, err := h.st.Get(pid)
	if err != nil {
		return rowPageErr(rid, err)
	}
	defer p.Release()
	d := p.Data()
	if d[0] != heapPageType || !h.slotUsed(d, slot) {
		return ErrNoSuchRow
	}
	decodeRow(dst, h.rowAt(d, slot))
	return nil
}

// update overwrites the row at rid in place, folding the old and new
// contents into the content checksum.
func (h *heap) update(rid RowID, row []int64) error {
	pid := pagestore.PageID(rid.page())
	slot := rid.slot()
	if pid == pagestore.InvalidPage || slot >= h.slots {
		return ErrNoSuchRow
	}
	p, err := h.st.Get(pid)
	if err != nil {
		return rowPageErr(rid, err)
	}
	d := p.Data()
	if d[0] != heapPageType || !h.slotUsed(d, slot) {
		p.Release()
		return ErrNoSuchRow
	}
	old := make([]int64, h.ncols)
	decodeRow(old, h.rowAt(d, slot))
	p.BeginWrite()
	encodeRow(h.rowAt(d, slot), row)
	p.Release()
	h.chk ^= RowChecksum(old, rid) ^ RowChecksum(row, rid)
	return h.writeHeader()
}

// delete removes the row at rid, returning the deleted contents in dst.
func (h *heap) delete(rid RowID, dst []int64) error {
	pid := pagestore.PageID(rid.page())
	slot := rid.slot()
	if pid == pagestore.InvalidPage || slot >= h.slots {
		return ErrNoSuchRow
	}
	p, err := h.st.Get(pid)
	if err != nil {
		return rowPageErr(rid, err)
	}
	d := p.Data()
	if d[0] != heapPageType || !h.slotUsed(d, slot) {
		p.Release()
		return ErrNoSuchRow
	}
	decodeRow(dst, h.rowAt(d, slot))
	p.BeginWrite()
	h.setSlot(d, slot, false)
	setPageCount(d, pageCount(d)-1)
	p.Release()
	h.rowCount--
	h.chk ^= RowChecksum(dst, rid)
	h.freeHint = pid
	return h.writeHeader()
}

// scan calls fn for every live row. The row slice is reused between calls.
func (h *heap) scan(fn func(rid RowID, row []int64) (bool, error)) error {
	row := make([]int64, h.ncols)
	pid := h.firstPage
	// Copy each page out before invoking fn so callers may mutate the heap
	// for rows other than the one in hand (not during the same scan page).
	buf := make([]byte, h.st.PageSize())
	for pid != pagestore.InvalidPage {
		p, err := h.st.Get(pid)
		if err != nil {
			return err
		}
		copy(buf, p.Data())
		p.Release()
		for slot := 0; slot < h.slots; slot++ {
			if !h.slotUsed(buf, slot) {
				continue
			}
			decodeRow(row, h.rowAt(buf, slot))
			cont, err := fn(makeRowID(uint32(pid), slot), row)
			if err != nil {
				return err
			}
			if !cont {
				return nil
			}
		}
		pid = pageNext(buf)
	}
	return nil
}

// drop frees every heap page and the header.
func (h *heap) drop() error {
	pid := h.firstPage
	for pid != pagestore.InvalidPage {
		p, err := h.st.Get(pid)
		if err != nil {
			return err
		}
		next := pageNext(p.Data())
		p.Release()
		if err := h.st.Free(pid); err != nil {
			return err
		}
		pid = next
	}
	return h.st.Free(h.header)
}
