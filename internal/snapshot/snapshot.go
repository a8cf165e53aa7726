// Package snapshot saves and restores a whole database — catalog and rows —
// as one binary blob, using the wire value encoding. It backs the shell's
// \save and \open commands and is the checkpoint format of the durability
// subsystem (internal/durable): a checkpoint is a snapshot stamped with the
// last WAL LSN it covers.
//
// Format v2 (current):
//
//	| magic | version=2 | last-applied LSN | body (tables) | CRC32 (4B LE) |
//
// all in wire primitives except the fixed CRC trailer, which covers every
// preceding byte. Format v1 (legacy, shell \save files from before
// durability) lacks the LSN and the trailer; Load still accepts it, mapping
// it to LSN 0. Corrupt and future-format files are rejected with typed
// errors — a durability substrate must never decode damage into a database.
//
// Load is hardened against hostile input: every count is bounded by the
// bytes that could possibly back it before allocation, so a truncated or
// bit-flipped file costs a typed error, not memory.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"resultdb/internal/catalog"
	"resultdb/internal/db"
	"resultdb/internal/storage"
	"resultdb/internal/types"
	"resultdb/internal/wire"
)

const (
	magic = 0x52444253 // "RDBS"
	// versionLegacy is the pre-durability format: no LSN, no checksum.
	versionLegacy = 1
	// versionCurrent adds the last-applied LSN to the header and a CRC32
	// trailer over the whole file.
	versionCurrent = 2

	crcTrailerLen = 4
)

// Typed load failures, distinguishable with errors.Is.
var (
	// ErrBadMagic means the bytes are not a snapshot at all.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrFutureVersion means the snapshot was written by a newer format
	// this build cannot decode.
	ErrFutureVersion = errors.New("snapshot: unsupported future format version")
	// ErrChecksum means the CRC32 trailer does not match the contents.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrCorrupt means the body is structurally damaged (truncated counts,
	// invalid kinds, trailing bytes, ...).
	ErrCorrupt = errors.New("snapshot: corrupt")
)

// Source is the read surface Save encodes: a sorted table listing plus
// per-name lookup. Both *db.Database (newest state) and *db.Snapshot (one
// pinned MVCC version set) implement it, so checkpoints can serialize a
// frozen snapshot while writers keep committing.
type Source interface {
	TableNames() []string
	Table(name string) (*storage.Table, error)
}

// Save writes every table of src (base tables and materialized views) to w
// in the current format, with a last-applied LSN of 0 (no WAL association).
func Save(src Source, w io.Writer) error {
	return SaveLSN(src, 0, w)
}

// SaveLSN writes a snapshot stamped with the WAL LSN it covers: replaying
// records with LSN > lastLSN on top of the loaded database reconstructs the
// logged state exactly.
func SaveLSN(src Source, lastLSN uint64, w io.Writer) error {
	e := wire.NewEncoder()
	e.Uvarint(magic)
	e.Uvarint(versionCurrent)
	e.Uvarint(lastLSN)
	names := src.TableNames()
	e.Uvarint(uint64(len(names)))
	for _, name := range names {
		t, err := src.Table(name)
		if err != nil {
			return err
		}
		encodeDef(e, t.Def)
		e.Uvarint(uint64(t.Len()))
		for _, row := range t.Rows() {
			for _, v := range row {
				e.Value(v)
			}
		}
	}
	buf := e.Bytes()
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	_, err := w.Write(buf)
	return err
}

func encodeDef(e *wire.Encoder, def *catalog.TableDef) {
	e.Str(def.Name)
	flags := uint64(0)
	if def.IsView {
		flags = 1
	}
	e.Uvarint(flags)
	e.Uvarint(uint64(len(def.Columns)))
	for _, c := range def.Columns {
		e.Str(c.Name)
		e.Uvarint(uint64(c.Type))
		if c.NotNull {
			e.Uvarint(1)
		} else {
			e.Uvarint(0)
		}
	}
	e.Uvarint(uint64(len(def.PrimaryKey)))
	for _, k := range def.PrimaryKey {
		e.Str(k)
	}
	e.Uvarint(uint64(len(def.ForeignKeys)))
	for _, fk := range def.ForeignKeys {
		e.Str(fk.RefTable)
		e.Uvarint(uint64(len(fk.Columns)))
		for i := range fk.Columns {
			e.Str(fk.Columns[i])
			e.Str(fk.RefColumns[i])
		}
	}
}

// Load reads a snapshot produced by Save (current or legacy format) into a
// fresh database.
func Load(r io.Reader) (*db.Database, error) {
	d, _, err := LoadLSN(r)
	return d, err
}

// LoadLSN is Load plus the snapshot's last-applied WAL LSN (0 for legacy v1
// files and plain Save output).
func LoadLSN(r io.Reader) (*db.Database, uint64, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, err
	}
	dec := wire.NewDecoder(buf)
	m, err := dec.Uvarint()
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if m != magic {
		return nil, 0, fmt.Errorf("%w: %#x", ErrBadMagic, m)
	}
	v, err := dec.Uvarint()
	if err != nil {
		return nil, 0, fmt.Errorf("%w: version: %v", ErrCorrupt, err)
	}
	lastLSN := uint64(0)
	switch {
	case v == versionLegacy:
		// Pre-durability file: no LSN, no checksum; decode the body as-is.
	case v == versionCurrent:
		// Verify the trailer before trusting a single body byte.
		if len(buf) < crcTrailerLen {
			return nil, 0, fmt.Errorf("%w: file too short for checksum", ErrCorrupt)
		}
		body, trailer := buf[:len(buf)-crcTrailerLen], buf[len(buf)-crcTrailerLen:]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
			return nil, 0, ErrChecksum
		}
		dec = wire.NewDecoder(body)
		// Re-skip the already-validated header.
		dec.Uvarint()
		dec.Uvarint()
		lastLSN, err = dec.Uvarint()
		if err != nil {
			return nil, 0, fmt.Errorf("%w: last LSN: %v", ErrCorrupt, err)
		}
	case v > versionCurrent:
		return nil, 0, fmt.Errorf("%w: %d (this build reads up to %d)", ErrFutureVersion, v, versionCurrent)
	default:
		return nil, 0, fmt.Errorf("%w: version %d", ErrCorrupt, v)
	}
	d, err := decodeBody(dec)
	if err != nil {
		return nil, 0, err
	}
	return d, lastLSN, nil
}

// decodeBody decodes the table section. Every count is checked against the
// bytes remaining before allocation: a table costs ≥ 1 byte, a column ≥ 3, a
// row ≥ width bytes — so a hostile count can never out-allocate its input.
func decodeBody(dec *wire.Decoder) (*db.Database, error) {
	nTables, err := dec.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: table count: %v", ErrCorrupt, err)
	}
	if nTables > uint64(dec.Remaining()) {
		return nil, fmt.Errorf("%w: table count %d exceeds remaining %d bytes", ErrCorrupt, nTables, dec.Remaining())
	}
	d := db.New()
	for i := uint64(0); i < nTables; i++ {
		def, err := decodeDef(dec)
		if err != nil {
			return nil, err
		}
		t, err := d.CreateTable(def)
		if err != nil {
			return nil, fmt.Errorf("%w: table %d: %v", ErrCorrupt, i, err)
		}
		nRows, err := dec.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: table %s row count: %v", ErrCorrupt, def.Name, err)
		}
		width := len(def.Columns)
		// A row encodes to at least one byte per value; no columns count as one.
		if nRows > uint64(dec.Remaining())/uint64(max(width, 1)) {
			return nil, fmt.Errorf("%w: table %s row count %d exceeds remaining %d bytes", ErrCorrupt, def.Name, nRows, dec.Remaining())
		}
		row := make(types.Row, width)
		for r := uint64(0); r < nRows; r++ {
			for c := 0; c < width; c++ {
				row[c], err = dec.Value()
				if err != nil {
					return nil, fmt.Errorf("%w: table %s row %d: %v", ErrCorrupt, def.Name, r, err)
				}
			}
			// Insert copies the values out of row and checks them against def.
			if err := t.Insert(row); err != nil {
				return nil, fmt.Errorf("%w: table %s row %d: %v", ErrCorrupt, def.Name, r, err)
			}
		}
	}
	if dec.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, dec.Remaining())
	}
	return d, nil
}

func decodeDef(dec *wire.Decoder) (*catalog.TableDef, error) {
	name, err := dec.Str()
	if err != nil {
		return nil, fmt.Errorf("%w: table name: %v", ErrCorrupt, err)
	}
	flags, err := dec.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: table %s flags: %v", ErrCorrupt, name, err)
	}
	if flags > 1 {
		return nil, fmt.Errorf("%w: table %s unknown flags %#x", ErrCorrupt, name, flags)
	}
	nCols, err := dec.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: table %s column count: %v", ErrCorrupt, name, err)
	}
	// A column encodes to at least 3 bytes (empty name + kind + notNull).
	if nCols > uint64(dec.Remaining())/3 {
		return nil, fmt.Errorf("%w: table %s column count %d exceeds remaining %d bytes", ErrCorrupt, name, nCols, dec.Remaining())
	}
	cols := make([]catalog.Column, nCols)
	for i := range cols {
		cname, err := dec.Str()
		if err != nil {
			return nil, fmt.Errorf("%w: table %s column %d name: %v", ErrCorrupt, name, i, err)
		}
		kind, err := dec.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: column %s kind: %v", ErrCorrupt, cname, err)
		}
		if kind > uint64(types.KindBool) {
			return nil, fmt.Errorf("%w: column %s invalid kind %d", ErrCorrupt, cname, kind)
		}
		notNull, err := dec.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: column %s notnull: %v", ErrCorrupt, cname, err)
		}
		if notNull > 1 {
			return nil, fmt.Errorf("%w: column %s invalid notnull %d", ErrCorrupt, cname, notNull)
		}
		cols[i] = catalog.Column{Name: cname, Type: types.Kind(kind), NotNull: notNull == 1}
	}
	def, err := catalog.NewTableDef(name, cols)
	if err != nil {
		return nil, fmt.Errorf("%w: table %s: %v", ErrCorrupt, name, err)
	}
	def.IsView = flags&1 != 0
	nPK, err := dec.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: table %s pk count: %v", ErrCorrupt, name, err)
	}
	if nPK > uint64(dec.Remaining()) {
		return nil, fmt.Errorf("%w: table %s pk count %d exceeds remaining %d bytes", ErrCorrupt, name, nPK, dec.Remaining())
	}
	for i := uint64(0); i < nPK; i++ {
		k, err := dec.Str()
		if err != nil {
			return nil, fmt.Errorf("%w: table %s pk %d: %v", ErrCorrupt, name, i, err)
		}
		def.PrimaryKey = append(def.PrimaryKey, k)
	}
	nFK, err := dec.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: table %s fk count: %v", ErrCorrupt, name, err)
	}
	// A foreign key encodes to at least 2 bytes (empty ref + pair count).
	if nFK > uint64(dec.Remaining())/2 {
		return nil, fmt.Errorf("%w: table %s fk count %d exceeds remaining %d bytes", ErrCorrupt, name, nFK, dec.Remaining())
	}
	for i := uint64(0); i < nFK; i++ {
		ref, err := dec.Str()
		if err != nil {
			return nil, fmt.Errorf("%w: table %s fk %d ref: %v", ErrCorrupt, name, i, err)
		}
		nPairs, err := dec.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: fk %s pair count: %v", ErrCorrupt, ref, err)
		}
		// A column pair encodes to at least 2 bytes (two empty names).
		if nPairs > uint64(dec.Remaining())/2 {
			return nil, fmt.Errorf("%w: fk %s pair count %d exceeds remaining %d bytes", ErrCorrupt, ref, nPairs, dec.Remaining())
		}
		fk := catalog.ForeignKey{RefTable: ref}
		for p := uint64(0); p < nPairs; p++ {
			c, err := dec.Str()
			if err != nil {
				return nil, fmt.Errorf("%w: fk %s pair %d: %v", ErrCorrupt, ref, p, err)
			}
			rc, err := dec.Str()
			if err != nil {
				return nil, fmt.Errorf("%w: fk %s pair %d ref: %v", ErrCorrupt, ref, p, err)
			}
			fk.Columns = append(fk.Columns, c)
			fk.RefColumns = append(fk.RefColumns, rc)
		}
		def.ForeignKeys = append(def.ForeignKeys, fk)
	}
	return def, nil
}
