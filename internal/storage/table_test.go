package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"resultdb/internal/catalog"
	"resultdb/internal/colstore"
	"resultdb/internal/types"
)

func newTable(t *testing.T) *Table {
	t.Helper()
	def := catalog.MustTableDef("t", []catalog.Column{
		{Name: "id", Type: types.KindInt, NotNull: true},
		{Name: "name", Type: types.KindText},
		{Name: "score", Type: types.KindFloat},
	})
	def.PrimaryKey = []string{"id"}
	return NewTable(def)
}

func TestInsertValidation(t *testing.T) {
	tab := newTable(t)
	ok := types.Row{types.NewInt(1), types.NewText("a"), types.NewFloat(1.5)}
	if err := tab.Insert(ok); err != nil {
		t.Fatal(err)
	}
	// Arity mismatch.
	if err := tab.Insert(types.Row{types.NewInt(1)}); err == nil {
		t.Error("short row accepted")
	}
	// NOT NULL violation.
	if err := tab.Insert(types.Row{types.Null(), types.NewText("a"), types.Null()}); err == nil {
		t.Error("NULL in NOT NULL column accepted")
	}
	// Coercion: int into float column.
	if err := tab.Insert(types.Row{types.NewInt(2), types.Null(), types.NewInt(3)}); err != nil {
		t.Errorf("int->float coercion failed: %v", err)
	}
	if got := tab.Rows()[1][2]; got.Kind() != types.KindFloat || got.Float() != 3 {
		t.Errorf("coerced value = %v", got)
	}
	// Type error: text into int column.
	if err := tab.Insert(types.Row{types.NewText("x"), types.Null(), types.Null()}); err == nil {
		t.Error("text into int column accepted")
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2", tab.Len())
	}
}

func TestWireSize(t *testing.T) {
	tab := newTable(t)
	if err := tab.InsertAll([]types.Row{
		{types.NewInt(2), types.NewText("bb"), types.NewFloat(0)},
		{types.NewInt(1), types.NewText("a"), types.NewFloat(0)},
	}); err != nil {
		t.Fatal(err)
	}
	// id(8) + name(2) + score(8) + id(8) + name(1) + score(8)
	if got := tab.WireSize(); got != 35 {
		t.Errorf("WireSize = %d, want 35", got)
	}
}

// TestColumnsCacheAndGeneration: a table version carries one Mark, its frame
// and a statistics slot. The frame is the table — the same pointer on every
// read while the version stands; the statistics are built once per version. A
// BeginVersion draft has a Mark of its own lineage, a frame of its own that
// extends the parent's (the parent's never changes) and no statistics, only
// the parent's as the base its build is handed; a direct Insert lengthens the
// Mark, grows the frame by the new row and demotes the statistics to the base
// of the next build.
func TestColumnsCacheAndGeneration(t *testing.T) {
	tab := newTable(t)
	rows := []types.Row{
		{types.NewInt(1), types.NewText("a"), types.NewFloat(1.5)},
		{types.NewInt(2), types.NewText("b"), types.Null()},
		{types.NewInt(3), types.Null(), types.NewFloat(3.5)},
	}
	v0 := tab.Mark()
	if v0 == (Mark{}) {
		t.Fatal("a new table has the zero Mark, which stands for \"no table\"")
	}
	if err := tab.InsertAll(rows); err != nil {
		t.Fatal(err)
	}
	v1 := tab.Mark()
	if v1 == v0 || !v0.PrefixOf(v1) || v1.Rows != 3 {
		t.Fatalf("InsertAll: Mark %+v after %+v, want the same lineage 3 rows long", v1, v0)
	}

	builds := 0
	var handed any
	stat := func(tb *Table, base any) any { builds++; handed = base; return tb.Len() }
	f := tab.Columns()
	if f.Rows() != 3 {
		t.Fatalf("frame rows = %d, want 3", f.Rows())
	}
	if tab.Columns() != f {
		t.Fatal("Columns() returned another frame without any table change")
	}
	if tab.Stats(stat) != 3 || tab.Stats(stat) != 3 || builds != 1 || handed != nil {
		t.Fatalf("statistics built %d times for one version (base %v), want once from nothing", builds, handed)
	}
	if tab.Mark() != v1 {
		t.Fatal("reading derived state changed the Mark")
	}

	// A draft is a new version whose frame extends the parent's; deriving and
	// filling it leaves the parent's frame and statistics untouched.
	draft := tab.BeginVersion()
	if draft.Mark() != v1 {
		t.Fatalf("an empty draft is marked %+v, want its parent's %+v", draft.Mark(), v1)
	}
	if err := draft.Insert(types.Row{types.NewInt(9), types.NewText("z"), types.Null()}); err != nil {
		t.Fatal(err)
	}
	if df := draft.Columns(); df == f || df.Rows() != 4 {
		t.Fatalf("draft frame shared with parent or wrong size (%d rows)", df.Rows())
	}
	if draft.Stats(stat) != 4 || builds != 2 || handed != 3 {
		t.Fatalf("draft statistics not built for the draft from the parent's (builds = %d, base %v)", builds, handed)
	}
	if tab.Columns() != f || f.Rows() != 3 || tab.Stats(stat) != 3 || tab.Len() != 3 || tab.Mark() != v1 {
		t.Fatal("a draft disturbed its parent version")
	}
	if got := f.Col(1).(*colstore.TextColumn); len(got.Dict) != 2 {
		t.Fatalf("the parent's dictionary shows %d entries after the draft added one, want 2", len(got.Dict))
	}

	// A single insert makes a new version; Columns() shows the new row.
	if err := tab.Insert(types.Row{types.NewInt(4), types.NewText("a"), types.Null()}); err != nil {
		t.Fatal(err)
	}
	if m := tab.Mark(); m.Rows != 4 || !v1.PrefixOf(m) {
		t.Fatalf("Insert left the Mark at %+v, want %+v one row longer", m, v1)
	}
	f2 := tab.Columns()
	if f2.Rows() != 4 {
		t.Fatalf("Columns() is stale after Insert: %d rows, want 4", f2.Rows())
	}
	if tab.Stats(stat) != 4 || builds != 3 || handed != 3 {
		t.Fatalf("statistics not derived anew from the old ones after Insert (builds = %d, base %v)", builds, handed)
	}
	// Frame values reconstruct the inserted rows exactly (the draft's row 9
	// was never published and the direct insert overwrote it).
	want := append(append([]types.Row{}, rows...), types.Row{types.NewInt(4), types.NewText("a"), types.Null()})
	for j, row := range want {
		for c := range row {
			if got := f2.Col(c).Value(j); got != row[c] {
				t.Fatalf("frame[%d][%d] = %v, want %v", c, j, got, row[c])
			}
		}
	}
	if !slices.EqualFunc(tab.Rows(), want, types.Row.Equal) {
		t.Fatalf("Rows() = %v, want %v", tab.Rows(), want)
	}
}

// chainDef is the schema of the version-chain tests: every kind, two TEXT
// columns (one low-cardinality, one mostly fresh strings), all but id nullable.
func chainDef() *catalog.TableDef {
	return catalog.MustTableDef("chain", []catalog.Column{
		{Name: "id", Type: types.KindInt, NotNull: true},
		{Name: "n", Type: types.KindInt},
		{Name: "x", Type: types.KindFloat},
		{Name: "b", Type: types.KindBool},
		{Name: "s", Type: types.KindText},
		{Name: "u", Type: types.KindText},
	})
}

// chainRow draws one insertable row for chainDef — values in the kinds an
// INSERT may offer (an integer for the DOUBLE column, a number for a TEXT one)
// — and the row the table must hold for it, coerced here, by the types
// package alone, so the expectation owes nothing to storage or colstore.
func chainRow(rng *rand.Rand, def *catalog.TableDef, id int) (in, want types.Row) {
	maybe := func(v types.Value) types.Value {
		if rng.Intn(4) == 0 {
			return types.Null()
		}
		return v
	}
	in = types.Row{
		types.NewInt(int64(id)),
		maybe(types.NewFloat(float64(rng.Intn(50)))),
		maybe(types.NewInt(int64(rng.Intn(1000)))),
		maybe(types.NewBool(rng.Intn(2) == 0)),
		maybe(types.NewText(fmt.Sprintf("k%d", rng.Intn(7)))),
		maybe(types.NewText(fmt.Sprintf("u%d", rng.Intn(1<<20)))),
	}
	if rng.Intn(3) == 0 {
		in[4] = types.NewInt(int64(rng.Intn(7))) // a number into TEXT
	}
	want = make(types.Row, len(in))
	for c, v := range in {
		cv, err := types.Coerce(v, def.Columns[c].Type)
		if err != nil {
			panic(err)
		}
		want[c] = cv
	}
	return in, want
}

// checkVersion compares version tab with the first tab.Len() rows of want,
// cell by cell through the frame (value, kind and NULL flag) and once more
// through the boxing kernel.
func checkVersion(tab *Table, want []types.Row) error {
	f := tab.Columns()
	if f.Rows() != tab.Len() || tab.Len() > len(want) {
		return fmt.Errorf("version %+v: frame has %d rows, table %d, input %d", tab.Mark(), f.Rows(), tab.Len(), len(want))
	}
	boxed := tab.Rows()
	for i := 0; i < tab.Len(); i++ {
		for c, w := range want[i] {
			col := f.Col(c)
			if got := col.Value(i); got != w || col.Null(i) != w.IsNull() || boxed[i][c] != w {
				return fmt.Errorf("version %+v row %d col %d: frame %v (null %v), boxed %v, want %v",
					tab.Mark(), i, c, got, col.Null(i), boxed[i][c], w)
			}
		}
	}
	return nil
}

// TestVersionChainSharesPrefixes is the copy-on-write contract of a table that
// is nothing but vectors. Random rows go in through a chain of BeginVersion
// drafts, a few at a time so that versions end in the middle of a bitmap word
// and the next one sets bits in it; some drafts are thrown away after they
// appended rows, fresh strings and NULLs. Every published version must box to
// exactly its prefix of the input — when it is published and again after every
// later version has appended — while reader goroutines scan the older versions
// the whole time (run under -race: a draft writing a word or an array slot a
// reader of its parent can see is a data race).
func TestVersionChainSharesPrefixes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	def := chainDef()
	var want []types.Row

	var mu sync.Mutex
	published := []*Table{NewTable(def)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	failed := make(chan error, 4)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				tab := published[rr.Intn(len(published))]
				exp := want[:tab.Len():tab.Len()]
				mu.Unlock()
				if err := checkVersion(tab, exp); err != nil {
					select {
					case failed <- err:
					default:
					}
					return
				}
			}
		}(int64(r))
	}

	cur := published[0]
	for v := 0; v < 150; v++ {
		draft := cur.BeginVersion()
		discard := rng.Intn(4) == 0
		var added []types.Row
		for k := 1 + rng.Intn(6); k > 0; k-- {
			in, w := chainRow(rng, def, len(want)+len(added))
			if err := draft.Insert(in); err != nil {
				t.Fatal(err)
			}
			added = append(added, w)
		}
		// A refused row (NULL id, after its earlier columns coerced) leaves
		// nothing behind, in a draft that is kept or not.
		bad, _ := chainRow(rng, def, 0)
		bad[0] = types.Null()
		if err := draft.Insert(bad); err == nil {
			t.Fatal("NULL id accepted")
		}
		if discard {
			continue
		}
		mu.Lock()
		want = append(want, added...)
		published = append(published, draft)
		mu.Unlock()
		cur = draft
		if err := checkVersion(draft, want); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-failed:
		t.Fatal(err)
	default:
	}
	// Every version, oldest first, after all the later ones appended.
	for _, tab := range published {
		if err := checkVersion(tab, want); err != nil {
			t.Fatal(err)
		}
	}
	// The dictionary is in first-occurrence order — what a frame built from
	// row 0 has — with no trace of the discarded drafts' strings.
	for _, c := range []int{4, 5} {
		var dict []string
		seen := map[string]bool{}
		for _, row := range want {
			if v := row[c]; !v.IsNull() && !seen[v.Text()] {
				seen[v.Text()] = true
				dict = append(dict, v.Text())
			}
		}
		if got := cur.Columns().Col(c).(*colstore.TextColumn).Dict; !slices.Equal(got, dict) {
			t.Fatalf("column %d dictionary has %d entries, first-occurrence order has %d (or they differ in order)", c, len(got), len(dict))
		}
	}
}

// TestColumnsIsAFieldRead: Columns() on a published version allocates nothing
// and hands out the same frame every time.
func TestColumnsIsAFieldRead(t *testing.T) {
	tab := NewTable(chainDef())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		in, _ := chainRow(rng, tab.Def, i)
		if err := tab.Insert(in); err != nil {
			t.Fatal(err)
		}
	}
	pub := tab.BeginVersion()
	f := pub.Columns()
	if allocs := testing.AllocsPerRun(100, func() {
		if pub.Columns() != f {
			t.Fatal("Columns() handed out another frame")
		}
	}); allocs != 0 {
		t.Fatalf("Columns() allocates %.0f times per call, want 0", allocs)
	}
}

// TestMarkIdentifiesContents is the contract the result cache extends entries
// by: equal marks mean equal rows, and a mark is a prefix of another exactly
// when its rows are the other's first rows. Drafts of one lineage grow one
// chain — a discarded draft leaves no published mark behind, and the next
// draft's rows replace its rows under the same lineage — while a table made
// anew (CREATE after a DROP of the same name, a view, a restore) is a lineage
// of its own, whatever its rows.
func TestMarkIdentifiesContents(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	def := chainDef()
	base := NewTable(def)
	var want []types.Row
	for i := 0; i < 10; i++ {
		in, w := chainRow(rng, def, i)
		if err := base.Insert(in); err != nil { // the direct-insert path
			t.Fatal(err)
		}
		want = append(want, w)
	}
	published := base.Mark()
	if published.Rows != 10 {
		t.Fatalf("10 direct inserts marked %+v", published)
	}

	// A discarded draft, then a new draft of the same parent: the new one is
	// an extension of the parent, and its rows are its own.
	discarded := base.BeginVersion()
	for i := 0; i < 3; i++ {
		in, _ := chainRow(rng, def, 100+i)
		if err := discarded.Insert(in); err != nil {
			t.Fatal(err)
		}
	}
	next := base.BeginVersion()
	for i := 0; i < 2; i++ {
		in, w := chainRow(rng, def, 10+i)
		if err := next.Insert(in); err != nil {
			t.Fatal(err)
		}
		want = append(want, w)
	}
	if m := next.Mark(); !published.PrefixOf(m) || m.Rows != 12 || m.PrefixOf(published) {
		t.Fatalf("the draft after a discarded one is marked %+v, want an extension of %+v by 2 rows", m, published)
	}
	if base.Mark() != published {
		t.Fatalf("drafts moved their parent's mark to %+v", base.Mark())
	}
	for _, v := range []*Table{base, next} {
		if err := checkVersion(v, want); err != nil {
			t.Fatal(err)
		}
	}

	// Re-created under the same definition with the same rows: neither
	// incarnation is a prefix of the other.
	again := NewTable(def)
	if err := again.InsertAll(want[:10]); err != nil {
		t.Fatal(err)
	}
	if again.Mark().Rows != published.Rows {
		t.Fatalf("re-created table holds %d rows, want %d", again.Mark().Rows, published.Rows)
	}
	for _, pair := range [][2]Mark{{published, again.Mark()}, {again.Mark(), published}, {Mark{}, again.Mark()}} {
		if pair[0].PrefixOf(pair[1]) {
			t.Fatalf("%+v taken for a prefix of %+v across lineages", pair[0], pair[1])
		}
	}
}
