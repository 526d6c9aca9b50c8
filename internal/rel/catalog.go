package rel

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"

	"ritree/internal/btree"
	"ritree/internal/pagestore"
)

// The catalog is serialized as JSON and stored in a chain of catalog pages
// rooted at db.catRoot. Catalog page layout:
//
//	offset 0:  type byte (catPageType)
//	offset 4:  next page id (uint32)
//	offset 8:  payload byte count in this page (uint32)
//	offset 16: payload
const (
	catPageType   = byte(4)
	catHeaderSize = 16
)

type catTable struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Header  uint32   `json:"header"`
}

type catIndex struct {
	Name    string   `json:"name"`
	Table   string   `json:"table"`
	Columns []string `json:"columns"`
	Meta    uint32   `json:"meta"`
}

type catCustomIndex struct {
	Name      string   `json:"name"`
	IndexType string   `json:"indextype"`
	Table     string   `json:"table"`
	Columns   []string `json:"columns"`
	// Params persists the indextype parameters (omitempty keeps catalogs
	// without them byte-identical to the earlier format).
	Params map[string]string `json:"params,omitempty"`
}

type catBlob struct {
	Name string `json:"name"`
	Root uint32 `json:"root"`
}

type catalogData struct {
	Tables  []catTable `json:"tables"`
	Indexes []catIndex `json:"indexes"`
	// CustomIndexes persists user-defined domain-index definitions (§5).
	// omitempty keeps catalogs without custom indexes byte-identical to the
	// pre-customindex format, and unmarshalling a catalog written before
	// this field existed simply yields none — both directions stay
	// compatible.
	CustomIndexes []catCustomIndex `json:"custom_indexes,omitempty"`
	// Blobs persists named blob chain roots (index snapshots). Same
	// omitempty compatibility contract as CustomIndexes.
	Blobs []catBlob `json:"blobs,omitempty"`
}

func (db *DB) saveCatalog() error {
	var data catalogData
	for _, t := range db.tables {
		data.Tables = append(data.Tables, catTable{
			Name:    t.name,
			Columns: t.schema.Columns,
			Header:  uint32(t.h.header),
		})
	}
	for _, ix := range db.indexes {
		t := db.tables[ix.table]
		cols := make([]string, len(ix.cols))
		for i, p := range ix.cols {
			cols[i] = t.schema.Columns[p]
		}
		data.Indexes = append(data.Indexes, catIndex{
			Name:    ix.name,
			Table:   ix.table,
			Columns: cols,
			Meta:    uint32(ix.tree.Meta()),
		})
	}
	for _, def := range db.customIx {
		data.CustomIndexes = append(data.CustomIndexes, catCustomIndex{
			Name:      def.Name,
			IndexType: def.IndexType,
			Table:     def.Table,
			Columns:   def.Columns,
			Params:    def.Params,
		})
	}
	sort.Slice(data.CustomIndexes, func(i, j int) bool {
		return data.CustomIndexes[i].Name < data.CustomIndexes[j].Name
	})
	for name, root := range db.blobs {
		data.Blobs = append(data.Blobs, catBlob{Name: name, Root: uint32(root)})
	}
	sort.Slice(data.Blobs, func(i, j int) bool {
		return data.Blobs[i].Name < data.Blobs[j].Name
	})
	payload, err := json.Marshal(&data)
	if err != nil {
		return err
	}

	chunk := db.st.PageSize() - catHeaderSize
	pid := db.catRoot
	prev := pagestore.InvalidPage
	var freeFrom pagestore.PageID
	for len(payload) > 0 || pid == db.catRoot {
		if pid == pagestore.InvalidPage {
			pid, err = db.st.Allocate()
			if err != nil {
				return err
			}
			// Link from the previous page.
			pp, err := db.st.GetMut(prev)
			if err != nil {
				return err
			}
			setCatNext(pp.Data(), pid)
			pp.Release()
		}
		p, err := db.st.GetMut(pid)
		if err != nil {
			return err
		}
		d := p.Data()
		next := catNext(d)
		d[0] = catPageType
		n := len(payload)
		if n > chunk {
			n = chunk
		}
		binary.LittleEndian.PutUint32(d[8:12], uint32(n))
		copy(d[catHeaderSize:], payload[:n])
		payload = payload[n:]
		if len(payload) == 0 {
			setCatNext(d, pagestore.InvalidPage)
			freeFrom = next
		}
		p.Release()
		prev = pid
		pid = next
		if len(payload) == 0 {
			break
		}
	}
	// Free any leftover pages from a previously longer catalog.
	for freeFrom != pagestore.InvalidPage {
		p, err := db.st.Get(freeFrom)
		if err != nil {
			return err
		}
		next := catNext(p.Data())
		p.Release()
		if err := db.st.Free(freeFrom); err != nil {
			return err
		}
		freeFrom = next
	}
	return nil
}

func catNext(d []byte) pagestore.PageID {
	return pagestore.PageID(binary.LittleEndian.Uint32(d[4:8]))
}
func setCatNext(d []byte, id pagestore.PageID) {
	binary.LittleEndian.PutUint32(d[4:8], uint32(id))
}

func (db *DB) loadCatalog() error {
	var payload []byte
	seen := make(map[pagestore.PageID]bool)
	for pid := db.catRoot; pid != pagestore.InvalidPage; {
		if seen[pid] {
			return fmt.Errorf("rel: catalog chain loops at page %d", pid)
		}
		seen[pid] = true
		p, err := db.st.Get(pid)
		if err != nil {
			return err
		}
		d := p.Data()
		if d[0] != catPageType {
			p.Release()
			return fmt.Errorf("rel: page %d is not a catalog page", pid)
		}
		n := int(binary.LittleEndian.Uint32(d[8:12]))
		if n > db.st.PageSize()-catHeaderSize {
			p.Release()
			return fmt.Errorf("rel: corrupt catalog page %d", pid)
		}
		payload = append(payload, d[catHeaderSize:catHeaderSize+n]...)
		pid = catNext(d)
		p.Release()
	}
	var data catalogData
	if err := json.Unmarshal(payload, &data); err != nil {
		return fmt.Errorf("rel: catalog decode: %w", err)
	}
	for _, ct := range data.Tables {
		schema := Schema{Columns: ct.Columns}
		h, err := openHeap(db.st, pagestore.PageID(ct.Header), schema.NumCols())
		if err != nil {
			return err
		}
		db.tables[ct.Name] = &Table{db: db, name: ct.Name, schema: schema, h: h}
	}
	for _, ci := range data.Indexes {
		t, ok := db.tables[ci.Table]
		if !ok {
			return fmt.Errorf("rel: catalog index %s references missing table %s", ci.Name, ci.Table)
		}
		cols := make([]int, len(ci.Columns))
		for i, c := range ci.Columns {
			p := t.schema.ColIndex(c)
			if p < 0 {
				return fmt.Errorf("rel: catalog index %s references missing column %s", ci.Name, c)
			}
			cols[i] = p
		}
		tree, err := btree.Open(db.st, pagestore.PageID(ci.Meta))
		if err != nil {
			return err
		}
		ix := &Index{name: ci.Name, table: ci.Table, cols: cols, tree: tree}
		t.indexes = append(t.indexes, ix)
		db.indexes[ci.Name] = ix
	}
	for _, cc := range data.CustomIndexes {
		if _, ok := db.tables[cc.Table]; !ok {
			return fmt.Errorf("rel: catalog custom index %s references missing table %s", cc.Name, cc.Table)
		}
		db.customIx[cc.Name] = CustomIndexDef{
			Name:      cc.Name,
			IndexType: cc.IndexType,
			Table:     cc.Table,
			Columns:   cc.Columns,
			Params:    cc.Params,
		}
	}
	for _, b := range data.Blobs {
		db.blobs[b.Name] = pagestore.PageID(b.Root)
	}
	return nil
}

// BulkLoadIndex rebuilds the named index from its table's rows using the
// B+-tree bulk loader; the existing index contents are discarded. This gives
// the "good clustering properties of the bulk loaded indexes" the paper
// observes (§6.3) and is dramatically faster than row-at-a-time insertion
// when creating a large index after loading a table.
func (db *DB) BulkLoadIndex(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	ix, ok := db.indexes[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchIndex, name)
	}
	t := db.tables[ix.table]
	keys := newFlatTuples(len(ix.cols)+1, int(t.h.rowCount))
	err := t.h.scan(func(rid RowID, row []int64) (bool, error) {
		keys.appendTuple(ix.keyFor(row, rid))
		return true, nil
	})
	if err != nil {
		return err
	}
	keys.sort()
	if err := ix.tree.Drop(); err != nil {
		return err
	}
	tree, err := btree.Create(db.st, len(ix.cols)+1)
	if err != nil {
		return err
	}
	if err := tree.BulkLoad(keys.next()); err != nil {
		return err
	}
	ix.tree = tree
	return db.saveCatalog()
}
