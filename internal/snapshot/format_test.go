package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/types"
	"resultdb/internal/wire"
)

// smallDB builds a one-table database with one row.
func smallDB(t *testing.T) *db.Database {
	t.Helper()
	d := db.New()
	if _, err := d.ExecScript(`
		CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT);
		INSERT INTO t VALUES (1, 'x');
	`); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSaveLoadLSN(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveLSN(smallDB(t), 1234, &buf); err != nil {
		t.Fatal(err)
	}
	got, lsn, err := LoadLSN(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 1234 {
		t.Fatalf("lsn = %d, want 1234", lsn)
	}
	res, err := got.QuerySQL("SELECT t.name FROM t AS t")
	if err != nil {
		t.Fatal(err)
	}
	if res.First().NumRows() != 1 {
		t.Fatalf("restored rows = %d", res.First().NumRows())
	}
	// Plain Save carries LSN 0.
	buf.Reset()
	if err := Save(smallDB(t), &buf); err != nil {
		t.Fatal(err)
	}
	if _, lsn, err = LoadLSN(bytes.NewReader(buf.Bytes())); err != nil || lsn != 0 {
		t.Fatalf("plain Save: lsn = %d, err = %v", lsn, err)
	}
}

func TestChecksumRejectionTyped(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveLSN(smallDB(t), 7, &buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	// Flip one bit past the magic (body or trailer): typed checksum error,
	// and never a decoded database. (A flip inside the magic itself is
	// rejected earlier as ErrBadMagic.)
	for _, off := range []int{8, len(clean) / 2, len(clean) - 1} {
		data := append([]byte(nil), clean...)
		data[off] ^= 0x10
		if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: err = %v, want ErrChecksum", off, err)
		}
	}
	// Truncation is also caught by the checksum before body decode.
	if _, err := Load(bytes.NewReader(clean[:len(clean)-3])); !errors.Is(err, ErrChecksum) {
		t.Fatalf("truncated: err should be ErrChecksum, got %v", err)
	}
}

func TestFutureVersionRejectedTyped(t *testing.T) {
	e := wire.NewEncoder()
	e.Uvarint(magic)
	e.Uvarint(versionCurrent + 1)
	e.Uvarint(0)
	e.Uvarint(0)
	body := e.Bytes()
	data := binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrFutureVersion) {
		t.Fatalf("err = %v, want ErrFutureVersion", err)
	}
}

func TestBadMagicTyped(t *testing.T) {
	e := wire.NewEncoder()
	e.Uvarint(0xBADC0DE)
	if _, err := Load(bytes.NewReader(e.Bytes())); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

// TestLegacyV1Load locks the migration behaviour: a version-1 file (shell
// \save output from before durability — no LSN field, no CRC trailer) still
// loads, mapping to LSN 0.
func TestLegacyV1Load(t *testing.T) {
	e := wire.NewEncoder()
	e.Uvarint(magic)
	e.Uvarint(versionLegacy)
	e.Uvarint(1) // one table
	e.Str("t")
	e.Uvarint(0) // flags
	e.Uvarint(2) // columns
	e.Str("id")
	e.Uvarint(uint64(types.KindInt))
	e.Uvarint(1) // NOT NULL
	e.Str("name")
	e.Uvarint(uint64(types.KindText))
	e.Uvarint(0)
	e.Uvarint(1) // pk
	e.Str("id")
	e.Uvarint(0) // fks
	e.Uvarint(2) // rows
	e.Value(types.NewInt(1))
	e.Value(types.NewText("x"))
	e.Value(types.NewInt(2))
	e.Value(types.Null())

	got, lsn, err := LoadLSN(bytes.NewReader(e.Bytes()))
	if err != nil {
		t.Fatalf("legacy load: %v", err)
	}
	if lsn != 0 {
		t.Fatalf("legacy lsn = %d, want 0", lsn)
	}
	tab, err := got.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	def := tab.Def
	if len(def.PrimaryKey) != 1 || !def.Columns[0].NotNull {
		t.Fatalf("legacy def = %+v", def)
	}
	res, err := got.QuerySQL("SELECT t.name FROM t AS t WHERE t.id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.First().NumRows() != 1 || res.First().Rows[0][0].Text() != "x" {
		t.Fatalf("legacy rows = %+v", res.First().Rows)
	}
	// Re-saving a legacy database produces a current-format file.
	var buf bytes.Buffer
	if err := Save(got, &buf); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadLSN(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("re-saved legacy db: %v", err)
	}
}

// TestHostileCounts plants huge counts behind valid headers and checks they
// are rejected before allocation (typed error, bounded memory).
func TestHostileCounts(t *testing.T) {
	hostile := func(build func(e *wire.Encoder)) []byte {
		e := wire.NewEncoder()
		e.Uvarint(magic)
		e.Uvarint(versionCurrent)
		e.Uvarint(0) // lsn
		build(e)
		body := e.Bytes()
		return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	}
	cases := map[string][]byte{
		"tables": hostile(func(e *wire.Encoder) { e.Uvarint(1 << 40) }),
		"columns": hostile(func(e *wire.Encoder) {
			e.Uvarint(1)
			e.Str("t")
			e.Uvarint(0)
			e.Uvarint(1 << 40)
		}),
		"rows": hostile(func(e *wire.Encoder) {
			e.Uvarint(1)
			e.Str("t")
			e.Uvarint(0)
			e.Uvarint(1)
			e.Str("id")
			e.Uvarint(uint64(types.KindInt))
			e.Uvarint(0)
			e.Uvarint(0) // pk
			e.Uvarint(0) // fk
			e.Uvarint(1 << 40)
		}),
		"kind": hostile(func(e *wire.Encoder) {
			e.Uvarint(1)
			e.Str("t")
			e.Uvarint(0)
			e.Uvarint(1)
			e.Str("id")
			e.Uvarint(99) // invalid kind
			e.Uvarint(0)
		}),
		// A table without columns costs no bytes per row, so nothing but the
		// input's length bounds how long a claimed row count keeps Load busy.
		"rows of no columns": hostile(func(e *wire.Encoder) {
			e.Uvarint(1)
			e.Str("t")
			e.Uvarint(0)
			e.Uvarint(0) // no columns
			e.Uvarint(0) // pk
			e.Uvarint(0) // fk
			e.Uvarint(1 << 40)
		}),
		// The values contradict the column's declared type: loading goes
		// through Insert, which refuses them.
		"mistyped value": hostile(func(e *wire.Encoder) {
			e.Uvarint(1)
			e.Str("t")
			e.Uvarint(0)
			e.Uvarint(1)
			e.Str("flag")
			e.Uvarint(uint64(types.KindBool))
			e.Uvarint(0)
			e.Uvarint(0) // pk
			e.Uvarint(0) // fk
			e.Uvarint(1)
			e.Value(types.NewInt(7))
		}),
	}
	for name, data := range cases {
		if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}
