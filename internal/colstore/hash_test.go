package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"resultdb/internal/types"
)

// keyForm is one way of presenting (rows, cols) to the hash kernel. Every
// form must hash, NULL-test and compare exactly like the plain rows.
type keyForm struct {
	name string
	key  func(kinds []types.Kind, rows []types.Row, cols []int) Key
}

var keyForms = []keyForm{
	// Every column declared with a kind its values do not have: the typed
	// build gives up at the first value and falls back to AnyColumn.
	{"view-mismatched", func(kinds []types.Kind, rows []types.Row, cols []int) Key {
		wrong := map[types.Kind]types.Kind{types.KindInt: types.KindText, types.KindText: types.KindInt,
			types.KindFloat: types.KindBool, types.KindBool: types.KindFloat}
		wk := make([]types.Kind, len(kinds))
		for c, k := range kinds {
			wk[c] = wrong[k]
		}
		return ViewKey(&View{Frame: NewFrame(wk, rows)}, cols)
	}},
	{"view", func(kinds []types.Kind, rows []types.Row, cols []int) Key {
		return ViewKey(&View{Frame: NewFrame(kinds, rows)}, cols)
	}},
	// The frame interleaves every row with a decoy; Sel picks the real ones.
	{"view-sel", func(kinds []types.Kind, rows []types.Row, cols []int) Key {
		padded := make([]types.Row, 0, 2*len(rows))
		sel := make([]int32, 0, len(rows))
		for i, r := range rows {
			padded = append(padded, rows[(i*7+3)%len(rows)])
			sel = append(sel, int32(len(padded)))
			padded = append(padded, r)
		}
		return ViewKey(&View{Frame: NewFrame(kinds, padded), Sel: sel}, cols)
	}},
	// Undeclared kinds: every column degrades to AnyColumn.
	{"view-any", func(kinds []types.Kind, rows []types.Row, cols []int) Key {
		return ViewKey(&View{Frame: NewFrame(make([]types.Kind, len(kinds)), rows)}, cols)
	}},
	// Columns stored in reverse order, addressed through a reversed list.
	{"view-reordered", func(kinds []types.Kind, rows []types.Row, cols []int) Key {
		w := len(kinds)
		rk := make([]types.Kind, w)
		for c, k := range kinds {
			rk[w-1-c] = k
		}
		rr := make([]types.Row, len(rows))
		for i, r := range rows {
			rr[i] = make(types.Row, w)
			for c, v := range r {
				rr[i][w-1-c] = v
			}
		}
		rc := make([]int, len(cols))
		for i, c := range cols {
			rc[i] = w - 1 - c
		}
		return ViewKey(&View{Frame: NewFrame(rk, rr)}, rc)
	}},
}

func keyNull(r types.Row, cols []int) bool {
	for _, c := range cols {
		if r[c].IsNull() {
			return true
		}
	}
	return false
}

func keysEq(a types.Row, aCols []int, b types.Row, bCols []int) bool {
	for i := range aCols {
		if !types.Equal(a[aCols[i]], b[bCols[i]]) {
			return false
		}
	}
	return true
}

// side is one input of a join in the checks below.
type side struct {
	kinds []types.Kind
	rows  []types.Row
	cols  []int
}

// checkJoinAgainstScan compares KeySet and HashTable with a linear scan of
// the build rows, for every pairing of build and probe forms. A build key
// matches a probe key under the hash structures' rule: both non-NULL, equal
// under types.Equal and hashing alike (so −0.0 and NaN, which Equal calls
// equal to 0 and to every number but which hash by their own bits, match
// only keys with those bits). Select and (over single-column keys) ContainsValue agree with
// the scan, both for the form BuildKeySet picks and for the hashed form of
// the same key, and HashTable probes yield exactly the scan's positions,
// ascending, at par 1 and 4.
func checkJoinAgainstScan(t *testing.T, build, probe side) {
	t.Helper()
	bh := make([]uint64, len(build.rows))
	for i, br := range build.rows {
		bh[i] = br.HashKey(build.cols)
	}
	want := make([][]int32, len(probe.rows))
	for j, pr := range probe.rows {
		if keyNull(pr, probe.cols) {
			continue
		}
		h := pr.HashKey(probe.cols)
		for i, br := range build.rows {
			if !keyNull(br, build.cols) && bh[i] == h && keysEq(br, build.cols, pr, probe.cols) {
				want[j] = append(want[j], int32(i))
			}
		}
	}
	var wantSel []int32
	for j := range probe.rows {
		if len(want[j]) > 0 {
			wantSel = append(wantSel, int32(j))
		}
	}
	for _, bf := range keyForms {
		bk := bf.key(build.kinds, build.rows, build.cols)
		sets := []*KeySet{BuildKeySet(bk), buildHashed(bk)}
		if len(build.cols) == 1 {
			for _, set := range sets {
				for j, pr := range probe.rows {
					if v := pr[probe.cols[0]]; set.ContainsValue(v) != (len(want[j]) > 0) {
						t.Fatalf("%s build, %s: ContainsValue(%v) = %v", bf.name, keySetForm(set), v, set.ContainsValue(v))
					}
				}
			}
		}
		tables := map[int]*HashTable{1: BuildHashTable(bk, 1), 4: BuildHashTable(bk, 4)}
		for _, pf := range keyForms {
			pk := pf.key(probe.kinds, probe.rows, probe.cols)
			for _, set := range sets {
				what := bf.name + " build (" + keySetForm(set) + "), " + pf.name + " probe"
				if got := selected(t, set, pk, 0, pk.Len()); !sameSel(got, wantSel) {
					t.Fatalf("%s: Select = %v, want %v", what, got, wantSel)
				}
				// An odd-sized sub-range crossing a batch boundary.
				if lo, hi := pk.Len()/3, pk.Len()-1; lo < hi {
					var sub []int32
					for _, j := range wantSel {
						if int(j) >= lo && int(j) < hi {
							sub = append(sub, j)
						}
					}
					if got := selected(t, set, pk, lo, hi); !sameSel(got, sub) {
						t.Fatalf("%s: Select[%d,%d) = %v, want %v", what, lo, hi, got, sub)
					}
				}
			}
			what := bf.name + " build, " + pf.name + " probe"
			for par, ht := range tables {
				pr := ht.Prober(pk)
				for j := range probe.rows {
					var got []int32
					pr.Each(j, func(pos int32) { got = append(got, pos) })
					if !sameSel(got, want[j]) {
						t.Fatalf("%s par=%d: probe %d %v yields %v, want %v", what, par, j, probe.rows[j], got, want[j])
					}
				}
			}
		}
	}
}

// keySetForm names the form BuildKeySet picked for s.
func keySetForm(s *KeySet) string {
	if s.bits != nil {
		return "dense"
	}
	return "hashed"
}

// TestKeySetMatchesNaive: composite keys with NULLs on both sides and heavy
// duplication, the probe addressing its columns through a reordered list.
func TestKeySetMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	kinds := []types.Kind{types.KindText, types.KindInt}
	build := randomTypedRows(rng, kinds, 600, 0.2, 4)
	probe := randomTypedRows(rng, kinds, 700, 0.2, 4)
	swapped := make([]types.Row, len(probe))
	for i, r := range probe {
		swapped[i] = types.Row{r[1], r[0]}
	}
	checkJoinAgainstScan(t,
		side{kinds, build, []int{0, 1}},
		side{[]types.Kind{kinds[1], kinds[0]}, swapped, []int{1, 0}})
}

// TestHashTableMatchesNaive: a build large enough for the partitioned
// parallel build to engage, chains of many duplicates per key.
func TestHashTableMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	kinds := []types.Kind{types.KindInt, types.KindText}
	checkJoinAgainstScan(t,
		side{kinds, randomTypedRows(rng, kinds, 2500, 0.15, 3), []int{1, 0}},
		side{kinds, randomTypedRows(rng, kinds, 300, 0.15, 3), []int{1, 0}})
}

// TestKeyMixedSides locks in the interop rules: every form of a key hashes
// and NULL-tests like the boxed rows (so any two column representations meet
// in one table), and equality is types.Equal whatever
// pairing of column representations meets — 3 ≡ 3.0 across INTEGER and
// DOUBLE, text by code over a shared dictionary and by value otherwise.
func TestKeyMixedSides(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	kinds := []types.Kind{types.KindText, types.KindFloat, types.KindInt, types.KindBool}
	rows := randomTypedRows(rng, kinds, 700, 0.3, 2)
	cols := []int{3, 0, 2, 1}
	for _, f := range keyForms {
		k := f.key(kinds, rows, cols)
		hs, null := hashAll(k, 4)
		m := newMatcher(k, k)
		for j, r := range rows {
			if hs[j] != r.HashKey(cols) {
				t.Fatalf("%s row %d: hash %#x, row hash %#x", f.name, j, hs[j], r.HashKey(cols))
			}
			if null[j] != keyNull(r, cols) {
				t.Fatalf("%s row %d: null = %v", f.name, j, null[j])
			}
			if !m.equal(j, j) {
				t.Fatalf("%s row %d: key not equal to itself", f.name, j)
			}
		}
	}

	// INTEGER against DOUBLE, both directions; 2^53 and 2^53+1 are one key
	// (integers compare and hash by float64 value — what internal/reference
	// does too, see core's TestBigIntegerKeysMatchReference).
	const big = int64(1) << 53
	ints := []types.Row{{types.NewInt(3)}, {types.NewInt(-7)}, {types.Null()}, {types.NewInt(big)}, {types.NewInt(big + 1)}, {types.NewInt(4)}}
	floats := []types.Row{{types.NewFloat(3)}, {types.NewFloat(3.5)}, {types.NewFloat(float64(big))}, {types.Null()}, {types.NewFloat(-7)}}
	iside := side{[]types.Kind{types.KindInt}, ints, []int{0}}
	fside := side{[]types.Kind{types.KindFloat}, floats, []int{0}}
	checkJoinAgainstScan(t, iside, fside)
	checkJoinAgainstScan(t, fside, iside)
	checkJoinAgainstScan(t, iside, iside)
	bigSet := BuildKeySet(ViewKey(&View{Frame: NewFrame(iside.kinds, ints[3:4])}, []int{0}))
	if !bigSet.ContainsValue(ints[4][0]) {
		t.Fatal("2^53+1 no longer matches 2^53: integer keys stopped comparing by float64 value")
	}

	// Text over one dictionary (two selections of one frame) compares codes;
	// over two dictionaries it compares strings. Same answers.
	tk := []types.Kind{types.KindText, types.KindInt}
	trows := randomTypedRows(rng, tk, 400, 0.1, 5)
	var evens, odds []int32
	var erows, orows []types.Row
	for i, r := range trows {
		if i%2 == 0 {
			evens, erows = append(evens, int32(i)), append(erows, r)
		} else {
			odds, orows = append(odds, int32(i)), append(orows, r)
		}
	}
	f := NewFrame(tk, trows)
	shared := newMatcher(ViewKey(&View{Frame: f, Sel: evens}, []int{0, 1}), ViewKey(&View{Frame: f, Sel: odds}, []int{0, 1}))
	apart := newMatcher(ViewKey(&View{Frame: NewFrame(tk, erows)}, []int{0, 1}), ViewKey(&View{Frame: NewFrame(tk, orows)}, []int{0, 1}))
	if shared.cols[0].at == nil || shared.cols[1].ai == nil {
		t.Fatal("shared-dictionary text / int pairing did not resolve to the typed compares")
	}
	if apart.cols[0].at != nil || apart.cols[1].ai == nil {
		t.Fatal("text over two dictionaries must not compare codes")
	}
	for i, er := range erows {
		for j, or := range orows {
			want := keysEq(er, []int{0, 1}, or, []int{0, 1})
			if shared.equal(i, j) != want || apart.equal(i, j) != want {
				t.Fatalf("rows %v / %v: shared %v, apart %v, want %v", er, or, shared.equal(i, j), apart.equal(i, j), want)
			}
		}
	}
}

// TestKeySetDenseMatchesHash: a key of one INTEGER column whose values lie
// strictly inside ±2^53 and span no more words than the table would have
// slots is a bitmap, and it matches exactly what the hashed form of the same
// key matches — INTEGER probes, DOUBLE probes (integral, fractional, −0.0,
// NaN, ±Inf, ±2^53) and mixed TEXT/BOOL/number probes, over sub-ranges that
// cross a batch and through ContainsValue. A range one word wider, or a key
// at ±2^53, stays hashed.
//
// A null-free INTEGER probe takes the branch-free kernel (selectInts), once
// read directly and once through a selection vector (the view and view-sel
// forms), with probe values below the base and past the last word, at
// ±(2^53−1) and over a negative base, and over a sub-range whose lo is not a
// multiple of batch. Each of these mutations of either kernel loop fails the
// test: dropping the word-index guard (indexing words[d>>6], or keeping the
// index mask but not masking the bit), writing j for lo+j, testing another
// bit of the word (d&62) and leaving out the subtract of base.
func TestKeySetDenseMatchesHash(t *testing.T) {
	const big = int64(1) << 53
	rng := rand.New(rand.NewSource(18))
	ints := func(vs ...int64) []types.Row {
		rows := make([]types.Row, len(vs))
		for i, v := range vs {
			rows[i] = types.Row{types.NewInt(v)}
		}
		return rows
	}
	random := func(n int, lo, span int64) []types.Row {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(lo + rng.Int63n(span))}
			if rng.Intn(7) == 0 {
				rows[i] = types.Row{types.Null()}
			}
		}
		return rows
	}
	slots := int64(1) << tableLog(3) // a three-row build's table
	cases := []struct {
		name  string
		build []types.Row
		dense bool
	}{
		{"nulls and duplicates", random(300, -40, 101), true},
		{"negative range", random(200, -5000, 900), true},
		{"one value", ints(7), true},
		{"all NULL", []types.Row{{types.Null()}, {types.Null()}, {types.Null()}}, true},
		{"width at the word bound", ints(-3, -3+64*slots-1, 5), true},
		{"width one word over", ints(-3, -3+64*slots, 5), false},
		{"2^53-1", append(ints(big-1, big-70), types.Row{types.Null()}), true},
		{"-(2^53-1)", ints(-(big - 1), -(big-1)+9), true},
		{"2^53", ints(big, big-1), false},
		{"-2^53", ints(-big, -big+1), false},
	}
	kinds := []types.Kind{types.KindInt}
	for _, c := range cases {
		build := side{kinds, c.build, []int{0}}
		set := BuildKeySet(ViewKey(&View{Frame: NewFrame(kinds, c.build)}, []int{0}))
		if got := keySetForm(set); (got == "dense") != c.dense {
			t.Fatalf("%s: BuildKeySet chose the %s form", c.name, got)
		}
		np, ip, fp, mp := denseProbes(c.build)
		if c, ok := ViewKey(&View{Frame: NewFrame(kinds, np)}, []int{0}).kc[0].(*Int64Column); !ok || c.Nulls.Count() != 0 {
			t.Fatal("the null-free probe is not a null-free Int64Column: the kernel goes untested")
		}
		checkJoinAgainstScan(t, build, side{kinds, np, []int{0}})
		checkJoinAgainstScan(t, build, side{kinds, ip, []int{0}})
		checkJoinAgainstScan(t, build, side{[]types.Kind{types.KindFloat}, fp, []int{0}})
		checkJoinAgainstScan(t, build, side{kinds, mp, []int{0}})
	}
}

// denseProbes returns probes of a one-column INTEGER build: every build key,
// its neighbours and the edges of every range a dense form involves, cycled
// past two batches — as a null-free INTEGER column (np), as INTEGERs with
// NULLs in between (ip), as DOUBLEs with NULLs, fractions, −0.0, NaN, ±Inf
// and ±2^53 (fp), and mixed INTEGER/DOUBLE/TEXT/BOOL values with NULLs (mp).
func denseProbes(build []types.Row) (np, ip, fp, mp []types.Row) {
	const big = int64(1) << 53
	cand := []int64{0, -1, 1, math.MinInt64, math.MaxInt64, big, -big, big - 1, -(big - 1), big + 1, -(big + 1)}
	for _, r := range build {
		if !r[0].IsNull() {
			v := r[0].Int()
			cand = append(cand, v-64, v-1, v, v+1, v+64)
		}
	}
	for i := 0; len(ip) < 1100; i++ {
		v := cand[i%len(cand)]
		np = append(np, types.Row{types.NewInt(v)})
		if i%11 == 5 {
			ip, fp, mp = append(ip, types.Row{types.Null()}), append(fp, types.Row{types.Null()}), append(mp, types.Row{types.Null()})
			continue
		}
		f := float64(v)
		switch i % 5 {
		case 1:
			f += 0.5
		case 2:
			f = []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), float64(big), -float64(big)}[i%6]
		}
		ip = append(ip, types.Row{types.NewInt(v)})
		fp = append(fp, types.Row{types.NewFloat(f)})
		mp = append(mp, []types.Row{{types.NewInt(v)}, {types.NewFloat(f)}, {types.NewText(fmt.Sprint(v))}, {types.NewBool(v%2 == 0)}}[i%4])
	}
	return np, ip, fp, mp
}

// tableForm names the form BuildHashTable picked for t.
func tableForm(t *HashTable) string {
	if t.heads != nil {
		return "dense"
	}
	return "hashed"
}

// joinPairs lists every (probe row, build position) pair of t probed with
// p's rows, in probe order: what a hash join emits.
func joinPairs(t *HashTable, p Key) [][2]int32 {
	var out [][2]int32
	pr := t.Prober(p)
	for j := 0; j < p.Len(); j++ {
		pr.Each(j, func(pos int32) { out = append(out, [2]int32{int32(j), pos}) })
	}
	return out
}

// TestHashTableDenseMatchesHash: a join build key of one INTEGER column
// whose values lie strictly inside ±2^53 and span no more than twice the
// slots of the table it replaces is a vector of chain heads, and it yields
// exactly the (probe, build) pairs the hashed form of the same key yields, in
// the same order — for null-free INTEGER probes (read directly and through a
// selection), INTEGERs with NULLs, DOUBLEs (−0.0, NaN, ±Inf, fractions) and
// mixed TEXT/BOOL/number probes in every key form. A range one entry wider,
// or a key at ±2^53, stays hashed.
func TestHashTableDenseMatchesHash(t *testing.T) {
	const big = int64(1) << 53
	rng := rand.New(rand.NewSource(36))
	ints := func(vs ...int64) []types.Row {
		rows := make([]types.Row, len(vs))
		for i, v := range vs {
			rows[i] = types.Row{types.NewInt(v)}
		}
		return rows
	}
	random := func(n int, lo, span int64) []types.Row {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(lo + rng.Int63n(span))}
			if rng.Intn(7) == 0 {
				rows[i] = types.Row{types.Null()}
			}
		}
		return rows
	}
	heads := int64(2) << tableLog(3) // two 4-byte heads a slot of a three-key table
	cases := []struct {
		name  string
		build []types.Row
		dense bool
	}{
		{"nulls and duplicates", random(300, -40, 101), true},
		{"negative range", random(200, -5000, 300), true},
		{"one value", ints(7), true},
		{"all NULL", []types.Row{{types.Null()}, {types.Null()}, {types.Null()}}, true},
		{"width at the bound", ints(-3, -3+heads-1, 5), true},
		{"width one over", ints(-3, -3+heads, 5), false},
		{"2^53-1", append(ints(big-1, big-5), types.Row{types.Null()}), true},
		{"-(2^53-1)", ints(-(big - 1), -(big-1)+5), true},
		{"2^53", ints(big, big-1), false},
		{"-2^53", ints(-big, -big+1), false},
	}
	kinds := []types.Kind{types.KindInt}
	typed := map[string]bool{"view": true, "view-sel": true, "view-reordered": true}
	for _, c := range cases {
		np, ip, fp, mp := denseProbes(c.build)
		probes := []side{{kinds, np, []int{0}}, {kinds, ip, []int{0}}, {[]types.Kind{types.KindFloat}, fp, []int{0}}, {kinds, mp, []int{0}}}
		for _, bf := range keyForms {
			bk := bf.key(kinds, c.build, []int{0})
			dense := BuildHashTable(bk, 4)
			if got := tableForm(dense); (got == "dense") != (c.dense && typed[bf.name]) {
				t.Fatalf("%s, %s build: BuildHashTable chose the %s form", c.name, bf.name, got)
			}
			for _, hashed := range []*HashTable{buildHashTable(bk, 1), buildHashTable(bk, 4)} {
				for _, p := range probes {
					for _, pf := range keyForms {
						pk := pf.key(p.kinds, p.rows, p.cols)
						if got, want := joinPairs(dense, pk), joinPairs(hashed, pk); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%s, %s build, %s %v probe: %d pairs, the hashed form %d", c.name, bf.name, pf.name, p.kinds, len(got), len(want))
						}
					}
				}
			}
		}
	}
}

// TestGroupPositionsDenseUniqueMatchesHash: a key one of whose null-free
// INTEGER columns lies within the bitmap bound and repeats no value among the
// key's rows is every row distinct, each row its own group — exactly what
// hashing the key finds — and any repeat, early or late, a NULL in that
// column, a range too wide or at ±2^53 sends the key to hashing, which
// groups it as before. Keys of one and of several columns, in every key form
// (the selected rows of a frame whose decoys repeat every value included),
// at par 1 and 4.
func TestGroupPositionsDenseUniqueMatchesHash(t *testing.T) {
	const big = int64(1) << 53
	rng := rand.New(rand.NewSource(37))
	const n = 1500
	perm := func(base, step int64) []int64 {
		vs := make([]int64, n)
		for i, p := range rng.Perm(n) {
			vs[i] = base + int64(p)*step
		}
		return vs
	}
	repeat := func(vs []int64, at int) []int64 {
		out := append([]int64(nil), vs...)
		out[at] = out[(at+n/2)%n]
		return out
	}
	dups := perm(0, 1)
	for i := range dups {
		dups[i] %= 40
	}
	cases := []struct {
		name    string
		a, b    []int64 // the key's INTEGER columns; b nil: a alone
		nullAt  int     // a row whose a is NULL, or -1
		skipped bool
	}{
		{"unique", perm(-700, 1), nil, -1, true},
		{"unique, gaps", perm(5, 7), nil, -1, true},
		{"repeat early", repeat(perm(0, 1), 1), nil, -1, false},
		{"repeat late", repeat(perm(0, 1), n-1), nil, -1, false},
		{"a NULL", perm(0, 1), nil, 700, false},
		{"too wide", perm(0, 1<<12), nil, -1, false},
		{"at 2^53", append(perm(big-n, 1)[:n-1], big), nil, -1, false},
		{"composite, second unique", dups, perm(100, 1), -1, true},
		{"composite, first unique", perm(100, 1), dups, -1, true},
		{"composite, unique beside a NULL", perm(100, 1), dups, 3, false},
		{"composite, none unique", repeat(perm(0, 1), 9), repeat(perm(0, 1), 10), -1, false},
	}
	typed := map[string]bool{"view": true, "view-sel": true, "view-reordered": true}
	for _, c := range cases {
		kinds, cols := []types.Kind{types.KindInt, types.KindText}, []int{0}
		if c.b != nil {
			kinds, cols = []types.Kind{types.KindInt, types.KindInt}, []int{0, 1}
		}
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(c.a[i]), types.NewText(fmt.Sprint(i % 3))}
			if c.b != nil {
				rows[i][1] = types.NewInt(c.b[i])
			}
			if i == c.nullAt {
				rows[i][0] = types.Null()
			}
		}
		for _, f := range keyForms {
			k := f.key(kinds, rows, cols)
			if got := k.unique(); got != (c.skipped && typed[f.name]) {
				t.Fatalf("%s, %s: unique = %v", c.name, f.name, got)
			}
			for _, par := range []int{1, 4} {
				gid, wantGid := make([]int32, n), make([]int32, n)
				got, want := GroupPositions(k, par, gid), groupHashed(k, par, wantGid)
				if !sameSel(got, want) || !sameSel(gid, wantGid) {
					t.Fatalf("%s, %s, par=%d: %d groups, hashing finds %d", c.name, f.name, par, len(got), len(want))
				}
				if got := DistinctPositions(k, par); !sameSel(got, want) {
					t.Fatalf("%s, %s, par=%d: DistinctPositions differs from hashing", c.name, f.name, par)
				}
			}
		}
	}
}

// allocBytes returns the bytes fn allocates: the fewest of five calls, since
// the count is process-wide and a race build allocates in the background.
func allocBytes(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestDenseKeySetBytes: the bitmap is never larger than the table it
// replaces — a dense build allocates no more bytes than the hashed build of
// the same key, with the range as wide as the word bound allows.
func TestDenseKeySetBytes(t *testing.T) {
	for _, n := range []int{1, 3, 100, 5000} {
		width := int64(64) << tableLog(n) // as many words as the table has slots
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(i) * (width - 1) / int64(max(n-1, 1)))}
		}
		k := ViewKey(&View{Frame: NewFrame([]types.Kind{types.KindInt}, rows)}, []int{0})
		if form := keySetForm(BuildKeySet(k)); form != "dense" {
			t.Fatalf("n=%d: %s form", n, form)
		}
		dense, hashed := allocBytes(func() { BuildKeySet(k) }), allocBytes(func() { buildHashed(k) })
		if dense > hashed {
			t.Errorf("n=%d: the dense build allocates %d bytes, the hashed one %d", n, dense, hashed)
		}
	}
}

// TestDenseHashTableBytes: the chain heads are never larger than the table
// they replace — a dense join build allocates no more bytes than the serial
// hashed build of the same key, with the range as wide as the bound allows.
func TestDenseHashTableBytes(t *testing.T) {
	for _, n := range []int{1, 3, 100, 5000} {
		width := int64(2) << tableLog(n) // two heads a slot
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(i) * (width - 1) / int64(max(n-1, 1)))}
		}
		k := ViewKey(&View{Frame: NewFrame([]types.Kind{types.KindInt}, rows)}, []int{0})
		if form := tableForm(BuildHashTable(k, 1)); form != "dense" {
			t.Fatalf("n=%d: %s form", n, form)
		}
		dense, hashed := allocBytes(func() { BuildHashTable(k, 1) }), allocBytes(func() { buildHashTable(k, 1) })
		if dense > hashed {
			t.Errorf("n=%d: the dense build allocates %d bytes, the hashed one %d", n, dense, hashed)
		}
	}
}

// TestPosTableCollisions feeds the table a constant hash, so every key
// collides on all 64 bits and only the probe sequence and the key compare
// tell them apart, with as many distinct keys as the table was sized for.
func TestPosTableCollisions(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 64, 300} {
		tab := newPosTable(n)
		if s := len(tab.slots); s < 2*n || s < 1 || s&(s-1) != 0 {
			t.Fatalf("n=%d: %d slots", n, s)
		}
		rows := make([]types.Row, 2*n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(i % max(n, 1)))} // every key twice
		}
		for _, f := range keyForms {
			k := f.key([]types.Kind{types.KindInt}, rows, []int{0})
			m := newMatcher(k, k)
			tab := newPosTable(n)
			for j := range rows {
				sl := tab.lookup(42, &m, j)
				if found := sl.ref != 0; found != (j >= n) {
					t.Fatalf("%s n=%d: lookup(%d) found = %v", f.name, n, j, found)
				}
				if sl.ref == 0 {
					sl.tag, sl.ref = 42, int32(j)+1
				}
			}
			for j := range rows {
				if got := tab.lookup(42, &m, j).ref - 1; int(got) != j%max(n, 1) {
					t.Fatalf("%s n=%d: lookup(%d) = %d", f.name, n, j, got)
				}
			}
			if n > 0 && tab.lookup(41, &m, 0).ref != 0 {
				t.Fatalf("%s n=%d: find matched a hash that was never inserted", f.name, n)
			}
		}
	}
	// Empty and one-row builds through the public structures.
	kinds := []types.Kind{types.KindInt}
	one := []types.Row{{types.NewInt(9)}}
	probe := side{kinds, []types.Row{{types.NewInt(9)}, {types.Null()}, {types.NewInt(8)}}, []int{0}}
	checkJoinAgainstScan(t, side{kinds, one, []int{0}}, probe)
	for _, f := range keyForms {
		empty := f.key(kinds, nil, []int{0})
		pk := keyForms[0].key(probe.kinds, probe.rows, probe.cols)
		if s := BuildKeySet(empty); s.ContainsValue(probe.rows[0][0]) || len(selected(t, s, pk, 0, 3)) != 0 {
			t.Fatalf("%s: empty KeySet matched", f.name)
		}
		pr := BuildHashTable(empty, 4).Prober(pk)
		pr.Each(0, func(int32) { t.Fatalf("%s: empty HashTable matched", f.name) })
		if got := DistinctPositions(empty, 4); len(got) != 0 {
			t.Fatalf("%s: DistinctPositions(empty) = %v", f.name, got)
		}
	}
}

// TestDistinctPositionsKeepsFirst: grouping semantics (NULL equals NULL,
// 1 equals 1.0), first occurrence wins, ascending output, at par 1 and 4 —
// and the group numbers the same pass hands out: row j's is the rank of the
// first position with j's key.
func TestDistinctPositionsKeepsFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	kinds := []types.Kind{types.KindInt, types.KindText, types.KindFloat}
	rows := randomTypedRows(rng, kinds, 3000, 0.25, 3)
	for i := range rows {
		rows[i][0] = types.NewInt(rng.Int63n(6))
		if !rows[i][2].IsNull() {
			rows[i][2] = types.NewFloat(float64(rng.Intn(3)))
		}
		if i%5 == 0 {
			rows[i][0] = types.Null()
		}
	}
	for _, cols := range [][]int{{0}, {1}, {2, 0}, {0, 1, 2}} {
		var want []int32
		wantGid := make([]int32, len(rows))
		for j, r := range rows {
			wantGid[j] = int32(len(want))
			for g, p := range want {
				if keysEq(rows[p], cols, r, cols) {
					wantGid[j] = int32(g)
					break
				}
			}
			if int(wantGid[j]) == len(want) {
				want = append(want, int32(j))
			}
		}
		for _, f := range keyForms {
			k := f.key(kinds, rows, cols)
			for _, par := range []int{1, 4} {
				if got := DistinctPositions(k, par); !sameSel(got, want) {
					t.Fatalf("%s cols %v par=%d: %d positions %v..., want %d %v...", f.name, cols, par,
						len(got), got[:min(len(got), 8)], len(want), want[:min(len(want), 8)])
				}
				gid := make([]int32, k.Len())
				if got := GroupPositions(k, par, gid); !sameSel(got, want) || !sameSel(gid, wantGid) {
					t.Fatalf("%s cols %v par=%d: GroupPositions numbers the groups %v..., want %v...", f.name, cols, par,
						gid[:min(len(gid), 12)], wantGid[:min(len(wantGid), 12)])
				}
			}
		}
	}
}

// TestHashKernelAllocations: building and probing allocate a number of
// objects that does not depend on how many distinct keys there are (the map
// of position slices this replaced allocated at least one per key).
func TestHashKernelAllocations(t *testing.T) {
	kinds := []types.Kind{types.KindInt}
	key := func(n int) Key {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(i))}
		}
		return ViewKey(&View{Frame: NewFrame(kinds, rows)}, []int{0})
	}
	small, large := key(100), key(10000)
	for name, run := range map[string]func(k Key){
		"KeySet":            func(k Key) { BuildKeySet(k).Select(k, 0, k.Len(), make([]uint64, (k.Len()+63)/64)) },
		"KeySet hashed":     func(k Key) { buildHashed(k).Select(k, 0, k.Len(), make([]uint64, (k.Len()+63)/64)) },
		"HashTable":         func(k Key) { BuildHashTable(k, 1) },
		"HashTable hashed":  func(k Key) { buildHashTable(k, 1) },
		"DistinctPositions": func(k Key) { DistinctPositions(k, 1) },
		"groupHashed":       func(k Key) { groupHashed(k, 1, nil) },
	} {
		few := testing.AllocsPerRun(10, func() { run(small) })
		many := testing.AllocsPerRun(10, func() { run(large) })
		if many != few || many > 16 {
			t.Errorf("%s: %v allocations over 100 keys, %v over 10000", name, few, many)
		}
	}
}

// BenchmarkKeySetSelectDense probes a bitmap key set (the even integers of
// [0, 8192)) with 65 536 INTEGER rows drawn uniformly from [−512, 8704), so
// about 44 % hit in no pattern a branch predictor can learn and 11 % lie
// outside the bitmap. The probe column is read directly (sel=nil) or through
// a selection vector picking every other row of a frame twice as long (sel),
// without NULLs or with every 16th row NULL.
func BenchmarkKeySetSelectDense(b *testing.B) {
	const n = 1 << 16
	kinds := []types.Kind{types.KindInt}
	build := make([]types.Row, 4096)
	for i := range build {
		build[i] = types.Row{types.NewInt(int64(2 * i))}
	}
	set := BuildKeySet(ViewKey(&View{Frame: NewFrame(kinds, build)}, []int{0}))
	if keySetForm(set) != "dense" {
		b.Fatal("the build is not dense")
	}
	rng := rand.New(rand.NewSource(19))
	for _, nulls := range []bool{false, true} {
		rows := make([]types.Row, 2*n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(rng.Int63n(9216) - 512)}
			if nulls && i%16 == 0 {
				rows[i] = types.Row{types.Null()}
			}
		}
		sel := make([]int32, n)
		for i := range sel {
			sel[i] = int32(2 * i)
		}
		views := []struct {
			name string
			view *View
		}{
			{"sel=nil", &View{Frame: NewFrame(kinds, rows[:n])}},
			{"sel", &View{Frame: NewFrame(kinds, rows), Sel: sel}},
		}
		for _, v := range views {
			b.Run(fmt.Sprintf("%s/nulls=%v", v.name, nulls), func(b *testing.B) {
				k := ViewKey(v.view, []int{0})
				mask := make([]uint64, n/64)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					clear(mask)
					set.Select(k, 0, n, mask)
				}
			})
		}
	}
}

func ExampleKeySet_Select() {
	key := func(kind types.Kind, rows ...types.Row) Key {
		return ViewKey(&View{Frame: NewFrame([]types.Kind{kind}, rows)}, []int{0})
	}
	// The INTEGER 1 beside a DOUBLE makes the build column an AnyColumn.
	build := key(types.KindFloat, types.Row{types.NewInt(1)}, types.Row{types.NewFloat(3)}, types.Row{types.Null()})
	probe := key(types.KindInt, types.Row{types.NewInt(3)}, types.Row{types.Null()}, types.Row{types.NewInt(2)}, types.Row{types.NewInt(1)})
	mask := make([]uint64, 1)
	hits := BuildKeySet(build).Select(probe, 0, 4, mask)
	fmt.Printf("%d hits, mask %04b\n", hits, mask[0])
	// Output: 2 hits, mask 1001
}

// selected is Select over [lo, hi) of pk as ascending positions, checking
// that the count it returns is the bits it marked and that it marked none
// past hi.
func selected(t *testing.T, set *KeySet, pk Key, lo, hi int) []int32 {
	t.Helper()
	mask := make([]uint64, (hi-lo+63)/64)
	n := set.Select(pk, lo, hi, mask)
	var out []int32
	for j := lo; j < lo+64*len(mask); j++ {
		if mask[(j-lo)>>6]>>((j-lo)&63)&1 != 0 {
			if j >= hi {
				t.Fatalf("Select[%d,%d) marked position %d", lo, hi, j)
			}
			out = append(out, int32(j))
		}
	}
	if n != len(out) {
		t.Fatalf("Select[%d,%d) reports %d hits, marked %d", lo, hi, n, len(out))
	}
	return out
}
