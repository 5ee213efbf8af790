package kgc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"kgeval/internal/kgc/store"
)

// Model persistence: a small versioned binary format so trained models can
// be saved once and re-evaluated many times (the workflow behind the
// paper's ogbl-wikikg2 experiment, which evaluates *pretrained* ComplEx
// embeddings). Only the embedding-table models round-trip; ConvE's BN
// statistics are included via its table list.

const serializeMagic = "KGEVALM1"

// tableSet is implemented by models that expose their parameter tables for
// serialization.
type tableSet interface {
	tables() []namedTable
}

// namedTable is a parameter table with the name Load errors report it by.
type namedTable struct {
	name string
	*table
}

func (m *TransE) tables() []namedTable   { return []namedTable{{"entity", m.ent}, {"relation", m.rel}} }
func (m *DistMult) tables() []namedTable { return []namedTable{{"entity", m.ent}, {"relation", m.rel}} }
func (m *ComplEx) tables() []namedTable  { return []namedTable{{"entity", m.ent}, {"relation", m.rel}} }
func (m *RESCAL) tables() []namedTable   { return []namedTable{{"entity", m.ent}, {"relation", m.rel}} }
func (m *RotatE) tables() []namedTable   { return []namedTable{{"entity", m.ent}, {"relation", m.rel}} }
func (m *TuckER) tables() []namedTable {
	return []namedTable{{"entity", m.ent}, {"relation", m.rel}, {"core", m.core}}
}
func (m *ConvE) tables() []namedTable {
	return []namedTable{{"entity", m.ent}, {"entity_bias", m.entBias}, {"relation", m.rel},
		{"conv_kernel", m.kern}, {"conv_bias", m.kernB}, {"fc", m.fc}, {"fc_bias", m.fcB}}
}

// extraFloats lets a model persist non-table state (ConvE's BN statistics).
func modelExtras(m Model) []*[]float64 {
	if c, ok := m.(*ConvE); ok {
		return []*[]float64{&c.bnConvMean, &c.bnConvVar, &c.bnFCMean, &c.bnFCVar}
	}
	return nil
}

// Save writes the model's parameters to w. The receiver's architecture
// (name, dimensions, table shapes) is not stored beyond a consistency
// fingerprint: Load must be called on a model constructed with the same
// constructor arguments.
func Save(w io.Writer, m Model) error {
	ts, ok := m.(tableSet)
	if !ok {
		return fmt.Errorf("kgc: model %s does not support serialization", m.Name())
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(serializeMagic); err != nil {
		return err
	}
	writeString(bw, m.Name())
	tables := ts.tables()
	writeU64(bw, uint64(len(tables)))
	for _, t := range tables {
		writeU64(bw, uint64(len(t.w)))
		for _, v := range t.w {
			writeF64(bw, v)
		}
	}
	extras := modelExtras(m)
	writeU64(bw, uint64(len(extras)))
	for _, e := range extras {
		writeU64(bw, uint64(len(*e)))
		for _, v := range *e {
			writeF64(bw, v)
		}
	}
	return bw.Flush()
}

// Load restores parameters saved by Save into m, which must have been
// constructed with the same architecture (model name and table shapes). It
// rejects a checkpoint holding any NaN or ±Inf parameter, naming the table:
// non-finite weights make scores NaN, and a NaN model must fail to load
// rather than be evaluated.
func Load(r io.Reader, m Model) error {
	ts, ok := m.(tableSet)
	if !ok {
		return fmt.Errorf("kgc: model %s does not support serialization", m.Name())
	}
	br := bufio.NewReader(r)
	magic := make([]byte, len(serializeMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("kgc: reading magic: %w", err)
	}
	if string(magic) != serializeMagic {
		return fmt.Errorf("kgc: bad magic %q", magic)
	}
	name, err := readString(br)
	if err != nil {
		return err
	}
	if name != m.Name() {
		return fmt.Errorf("kgc: checkpoint is for %s, model is %s", name, m.Name())
	}
	tables := ts.tables()
	n, err := readU64(br)
	if err != nil {
		return err
	}
	if int(n) != len(tables) {
		return fmt.Errorf("kgc: checkpoint has %d tables, model has %d", n, len(tables))
	}
	for i, t := range tables {
		ln, err := readU64(br)
		if err != nil {
			return err
		}
		if int(ln) != len(t.w) {
			return fmt.Errorf("kgc: table %d (%s) has %d params in checkpoint, %d in model", i, t.name, ln, len(t.w))
		}
		if err := readFinite(br, t.w, fmt.Sprintf("%s table %q", m.Name(), t.name)); err != nil {
			return err
		}
	}
	extras := modelExtras(m)
	ne, err := readU64(br)
	if err != nil {
		return err
	}
	if int(ne) != len(extras) {
		return fmt.Errorf("kgc: checkpoint has %d extras, model has %d", ne, len(extras))
	}
	for i, e := range extras {
		ln, err := readU64(br)
		if err != nil {
			return err
		}
		if int(ln) != len(*e) {
			return fmt.Errorf("kgc: extra %d length mismatch", i)
		}
		if err := readFinite(br, *e, fmt.Sprintf("%s extra state %d", m.Name(), i)); err != nil {
			return err
		}
	}
	return nil
}

// SaveEntityStore writes m's entity-embedding table as a columnar store
// file (the versioned mmap-able format of internal/kgc/store) at the given
// precision. Serving processes then OpenEntityStore the file and share one
// read-only copy through the page cache instead of each re-deriving the
// table from a checkpoint.
func SaveEntityStore(w io.Writer, m Model, p store.Precision) error {
	bn, ok := m.(batchNative)
	if !ok {
		return fmt.Errorf("kgc: model %s has no entity store", m.Name())
	}
	st := bn.entityStores().get(bn.entityTable(), p)
	_, err := st.WriteTo(w)
	return err
}

// OpenEntityStore memory-maps an entity store file written by
// SaveEntityStore and attaches it to m: batch scorers for the store's
// precision gather from the mapping from then on. The load is O(1) in the
// table size, and concurrent processes opening the same file share one
// physical copy. The caller owns the returned store and should Close it
// once m is no longer in use.
func OpenEntityStore(m Model, path string) (*store.Store, error) {
	st, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	if err := AttachEntityStore(m, st); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

// AttachEntityStore installs st as m's cached entity store for st's
// precision after validating that its shape matches m's entity table.
func AttachEntityStore(m Model, st *store.Store) error {
	bn, ok := m.(batchNative)
	if !ok {
		return fmt.Errorf("kgc: model %s has no entity store", m.Name())
	}
	t := bn.entityTable()
	if st.Rows() != len(t.w)/t.dim || st.Dim() != t.dim {
		return fmt.Errorf("kgc: store shape %d×%d does not match %s entity table %d×%d",
			st.Rows(), st.Dim(), m.Name(), len(t.w)/t.dim, t.dim)
	}
	bn.entityStores().attach(st)
	return nil
}

func writeU64(w io.Writer, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.Write(buf[:]) //nolint:errcheck // bufio defers errors to Flush
}

func writeF64(w io.Writer, v float64) {
	writeU64(w, math.Float64bits(v))
}

func writeString(w io.Writer, s string) {
	writeU64(w, uint64(len(s)))
	io.WriteString(w, s) //nolint:errcheck // bufio defers errors to Flush
}

func readU64(r io.Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

func readF64(r io.Reader) (float64, error) {
	v, err := readU64(r)
	return math.Float64frombits(v), err
}

// readFinite fills dst with float64s read from r, failing on the first NaN
// or ±Inf; what names the destination in the error.
func readFinite(r io.Reader, dst []float64, what string) error {
	for j := range dst {
		v, err := readF64(r)
		if err != nil {
			return err
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("kgc: %s holds non-finite value %v at index %d", what, v, j)
		}
		dst[j] = v
	}
	return nil
}

func readString(r io.Reader) (string, error) {
	n, err := readU64(r)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("kgc: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
