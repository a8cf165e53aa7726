package resultdb_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	gotypes "go/types"
	"io/fs"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"unicode"
)

// A rule is one design invariant (DESIGN.md) over the module's syntax trees.
// It reads the facts of its kinds whose "path:function" in matches, of test
// files only when tests is set. Each fact re matches is a violation unless
// its "path:function" matches ok; with n > 0 the rule also wants exactly n
// matches. bad is a file path and a source that must break the rule.
type rule struct {
	what, kinds, re, in, ok string
	n                       int
	tests                   bool
	bad                     [2]string
}

// The kinds of fact:
//
//	i  an identifier
//	w  a word of a comment or a string literal (letters, digits, _ and -)
//	x  code: a selector read (a call's callee is read as the call), a call
//	   with its first argument ("f(a, …)"), a composite literal with its keys
//	   ("T{K:, L:}"), a slice or map type, "range X", an == or != comparison,
//	   a case clause
//	a  an assignment's left side and its operator ("t.Rows =")
//	f  a function declaration's signature ("func (d *Database) Name(x int)")
//	s  a struct field ("Frame.src []int") or a typed variable
//	m  an import path, quoted
//	t  the type of an expression in the package typed ("[]types.Row"), so a
//	   frame's row count and a view's boxed rows tell apart by type, not name
var rules = []rule{
	{what: "names of deleted paths, knobs and helpers are back (inside an identifier, or a word of a comment or string)", kinds: "iw",
		re: `Vectorized|RESULTDB_VECTORIZED|NoGroupCommit|HashJoinDegree|HashJoinSpan|HashJoinVecSpan|SemiJoinDegree|SemiJoinSpan|SemiJoinVec|` +
			`DecomposePar|DecomposeTraced|DecomposeVecTraced|JoinAllDegree|JoinAllDPDegree|HashIndex|RESULTDB_STATS|StatsEnvVar|planVerdict|` +
			`planKey|PlanDiverged|RangeSkipped|joinAllStats|RangeSemiFilter|NumKeyRange|BuildHistogram|FracInRange|lastVersion|JoinAllDP|DPJoinOrder|` +
			`dpJoinOrder|measureNDV|subsetNDV|ndvIdx|AblationJoinOrder|ablation-joinorder|frameHello|helloStreaming|helloIntegrity|finishHello|` +
			`execBuffered|MaxVersion|NoIntegrity|PayloadSlots|ResultCacheBudget|wire-version|PayloadVersion|bfsEdges|subtreesWithProjection|` +
			`ndvsOf|remainingProjected|edgeColsFor|newEstimator|newRootSim|selCols|liveSel|edgeImplied|attrEqualityGraph|` +
			`attrConnected|JoinTreeEdge|FromEnv|EnvDegree|RetryFromEnv|isZeroRetry|CacheEnvVar|ParallelismEnvVar|RetriesEnvVar|` +
			`RetryBackoffEnvVar|RESULTDB_CACHE|RESULTDB_PARALLELISM|RESULTDB_RETRIES|RESULTDB_RETRY_BACKOFF|ForChunks|SetQuery|` +
			`AddRowsScanned|AddRowsJoined|AddRowsDropped|AddRowsOut|rowsKind|StreamMeta|streamSink|replayStream|execStreamAt|chunkPipeline|` +
			`startPipeline|FilterDense|FilterSel`,
		tests: true, bad: [2]string{"internal/engine/x.go", "package engine; var isVectorized bool"}},
	{what: "names of deleted paths are back (a whole identifier, or a whole word of a comment or string; kept test names contain some)", kinds: "iw",
		re: `(?:^|-)(?:CostBased|Legacy|binary64|DropImpliedEdges|AlphaAcyclic|joinStep|aliasStats|executorWith|Materialised|ExecStream|` +
			`writeFrame|RowsKey|Columnarize|gatherRows|KeyFor|concatRows)(?:-|$)`,
		tests: true, bad: [2]string{"internal/wire/x.go", "package wire; func writeFrame() {}"}},
	{what: "calls, selectors, declarations and literal keys of deleted paths are back", kinds: "xaf",
		re: `\.versions\(|func \(\w+ \*Table\) Version\(|func \(\w+ \*KeySet\) Len\b|hypergraph\.(Build|Classify)\b|catalog\.New\(|\.Catalog\(\)|` +
			`\.Src =( |$)|opts\.(Tracer|TableStats)|\bOptions\{[^}]*\b(Parallelism|Tracer|TableStats|ResultCache):|st\.Parallelism|Stats\.Parallelism|` +
			`core\.Options\.|CoreOptions\.(Root|Fold|EarlyStop|AlphaReduce|Tracer|TableStats)\b|func \(\w+ \*Database\) \w+\([^)]*trace\.Tracer|` +
			`d\.executor\(|func JoinAll\(|JoinAll\(preds|SemiJoinReduce\(spec|Decompose\(joined|FoldJoinGraph\(g\b|case "encode"|AddBytes\(|` +
			`parallel\.Filter\b|func Filter\[|bufio\.NewWriter\(conn\)|sp\.Par\b|Span\.Par\b|Executor\{[^}]*Parallelism:|EncodeOptions\{[^}]*Parallelism:|` +
			`parallel\.(Degree|Chunks|For|Each|Positions)\(|func (Map|MapErr)\[T any\]\(n, degree`,
		tests: true, bad: [2]string{"internal/core/x.go", "package core; var _ = parallel.Filter"}},
	{what: "d.mu outside internal/db/db.go (use withWriter or the snapshot API)", kinds: "x", re: `d\.mu\.`,
		in: `^(internal|cmd)/`, ok: `^internal/db/db\.go:`, tests: true,
		bad: [2]string{"internal/db/query.go", "package db; func f(d *Database) { d.mu.Lock() }"}},
	{what: "a non-test function takes a degree instead of the statement's parallel.Run", kinds: "f", re: `\b(par|degree)(, \w+)* int\b`,
		in: `^(internal|cmd)/`, bad: [2]string{"internal/engine/x.go", "package engine; func scan(n, par int) {}"}},
	{what: "non-test code reads the process environment", kinds: "x", re: `\bos\.(Getenv|LookupEnv|Environ)\b`,
		in: `^(internal|cmd)/`, bad: [2]string{"cmd/resultdbd/x.go", `package main; var _ = os.Getenv("X")`}},
	{what: "[]types.Row in internal/core or the colstore kernels (operators pass positions)", kinds: "x", re: `^\[\]types\.Row$`,
		in: `^internal/(core/[^/]+|colstore/(hash|filter)\.go):`, bad: [2]string{"internal/colstore/hash.go", "package colstore; var _ []types.Row"}},
	{what: "a value of []types.Row in internal/engine outside FromRows (an operator boxes a relation or takes rows back)", kinds: "t",
		re: `^\[\]types\.Row$`, in: `^internal/engine/[^/]+:`, ok: `^internal/engine/relation\.go:FromRows$`,
		bad: [2]string{"internal/engine/x.go", "package engine; func f(r *Relation) int { return len(r.Vec.Rows()) }"}},
	{what: "engine.FromRows has a non-test caller (a result set enters a post-join through its view)", kinds: "x", re: `\bFromRows\(`,
		ok: `^internal/engine/relation\.go:`, bad: [2]string{"cmd/resultdb/x.go", "package main; var _ = engine.FromRows(nil, nil)"}},
	{what: "colstore.Frame keeps the rows it was built from (src)", kinds: "s", re: `^Frame\..*\bsrc\b`,
		in: `^internal/colstore/colstore\.go:`, bad: [2]string{"internal/colstore/colstore.go", "package colstore; type Frame struct{ src []int }"}},
	{what: "a result set's Rows counted or walked outside the boxing helpers (use NumRows, WireSize, Column)", kinds: "x",
		re: `^len\((set|rs)\.Rows\)$|^range (set|rs)\.Rows\b`, in: `^internal/(wire|db)/[^/]+:`, ok: `^internal/db/result\.go:`,
		bad: [2]string{"internal/wire/x.go", "package wire; func f(set *db.ResultSet) { for range set.Rows {} }"}},
	{what: "a result set's Rows read in internal/client or cmd/resultdb (use NumRows, Column, Row)", kinds: "x", re: `\.Rows$`,
		in: `^(internal/client|cmd/resultdb)/[^/]+:`, bad: [2]string{"internal/client/client.go", "package client; func (r *Rows) n() int { return len(r.set.Rows) }"}},
	{what: "db or wire code branches on whether a result set has a view (every set has one)", kinds: "x", re: `\bVec [!=]= nil$`,
		in: `^internal/(db|wire)/`, bad: [2]string{"internal/db/x.go", "package db; func f(s *ResultSet) bool { return s.Vec != nil }"}},
	{what: "a row block is filled outside colstore.View.Rows", kinds: "x", re: `\bMakeRows\(`,
		in: `^internal/(wire|db)/`, bad: [2]string{"internal/wire/x.go", "package wire; var _ = colstore.MakeRows(nil)"}},
	{what: "compress/flate in non-test code (inflate.go and deflate.go are the codec)", kinds: "mx", re: `^"compress/flate"$|\bflate\.NewReader\(`,
		bad: [2]string{"internal/wire/x.go", `package wire; import "compress/flate"`}},
	{what: "inflate is called other than once, by the v2 column decoder", kinds: "x", re: `^inflate\(`,
		ok: `^internal/wire/encodev2\.go:decodeColV2$`, n: 1, bad: [2]string{"internal/wire/x.go", "package wire; func f() { inflate(nil, nil, 0) }"}},
	{what: "deflate is called other than once, by tryFlate", kinds: "x", re: `^deflate\(`,
		ok: `^internal/wire/encodev2\.go:tryFlate$`, n: 1, bad: [2]string{"internal/wire/encodev2.go", "package wire; func tryFlate() { deflate(nil, nil, nil, nil) }"}},
	{what: "unsafe imported in non-test code other than internal/wire/deflate.go", kinds: "m", re: `^"unsafe"$`,
		in: `^(internal|cmd)/`, ok: `^internal/wire/deflate\.go:`, bad: [2]string{"internal/types/x.go", `package types; import _ "unsafe"`}},
	{what: "internal/db parses a statement other than once, in Database.parse (the memo's)", kinds: "x", re: `^sqlparse\.Parse(Select)?\(`,
		in: `^internal/db/[^/]+:`, ok: `^internal/db/memo\.go:parse$`, n: 1, bad: [2]string{"internal/db/x.go", `package db; var _, _ = sqlparse.ParseSelect("")`}},
	{what: "a map[uint64][]... bucket structure in the execution path (probe colstore's position table)", kinds: "x", re: `^map\[uint64\]\[\]`,
		in: `^internal/(colstore|engine|storage)/`, bad: [2]string{"internal/engine/x.go", "package engine; var _ map[uint64][]int32"}},
	{what: "internal/reference linked into non-test code", kinds: "m", re: `^"resultdb/internal/reference"$`,
		bad: [2]string{"cmd/resultdb/x.go", `package main; import _ "resultdb/internal/reference"`}},
	{what: "a version counter or statistics cache outside internal/storage (a version is its Mark)", kinds: "ix",
		re: `Generation\(|colsGen|versionOf|statsCache|stats\.NewCache`, ok: `^internal/storage/`,
		bad: [2]string{"internal/db/x.go", "package db; var colsGen int"}},
	{what: "internal/cache has a name counter or a lookup that takes no version vector", kinds: "xf",
		re: `\.Bump\(|func \(\w+ \*Cache\[V\]\) (Do|Put|Get|Peek)\(`, in: `^internal/cache/[^/]+:`,
		bad: [2]string{"internal/cache/x.go", "package cache; func (c *Cache[V]) Get(k string) {}"}},
	{what: "a row-slice field or a frame build in internal/storage (a table is a frame)", kinds: "sx",
		re: ` \[\]types\.Row$|\bcolstore\.NewFrame\(`, in: `^internal/storage/[^/]+:`,
		bad: [2]string{"internal/storage/x.go", "package storage; type Table struct{ rows []types.Row }"}},
	{what: "a table's rows are written directly (use Insert/InsertAll)", kinds: "ax",
		re:  `\b(t|tab|tbl|table|view)\.Rows =$|^append\((t|tab|tbl|table|view)\.Rows\b`,
		bad: [2]string{"internal/db/x.go", "package db; func f(t *storage.Table) { t.Rows = nil }"}},
}

const (
	typed     = "internal/engine" // the package type-checked for the t facts
	parseMode = parser.ParseComments | parser.SkipObjectResolution
)

// TestDesignInvariants parses every .go file of the module (benchmark/ is a
// module of its own) and checks each rule on the parsed trees. Each rule's
// bad sample must break it too, so a rule that stops matching anything fails
// here instead of passing silently.
func TestDesignInvariants(t *testing.T) {
	m := &module{fset: token.NewFileSet(), pkgs: map[string][]*ast.File{}, done: map[string]*gotypes.Package{}}
	var files []*ast.File
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err == nil && e.IsDir() && (p == "benchmark" || p == ".bench_build" || p == ".git") {
			return filepath.SkipDir
		}
		// This file is skipped: its rules spell the names they forbid.
		if err != nil || e.IsDir() || !strings.HasSuffix(p, ".go") || p == "design_test.go" {
			return err
		}
		p = filepath.ToSlash(p)
		f, err := parser.ParseFile(m.fset, p, nil, parseMode)
		if !strings.HasSuffix(p, "_test.go") {
			m.pkgs[path.Dir(p)] = append(m.pkgs[path.Dir(p)], f)
		}
		files = append(files, f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	tree, info := map[byte][]fact{}, m.typecheck(nil)
	for _, f := range files {
		m.collect(tree, f, info)
	}
	for _, r := range rules {
		v, n := r.violations(m.fset, 0, tree)
		if len(v) > 0 {
			t.Errorf("%s:\n\t%s", r.what, strings.Join(v, "\n\t"))
		}
		f, err := parser.ParseFile(m.fset, r.bad[0], r.bad[1], parseMode)
		if err != nil {
			t.Fatalf("%s: sample: %v", r.what, err)
		}
		bad := map[byte][]fact{}
		m.collect(bad, f, m.typecheck(f))
		if v, _ := r.violations(m.fset, n, bad); len(v) == 0 {
			t.Errorf("%s: its sample %s does not break it", r.what, r.bad[0])
		}
	}
}

// A fact is one piece of syntax rendered as text (see rules for the kinds).
type fact struct {
	text, where string
	test        bool
	pos         token.Pos
}

// violations lists the facts that break r, as "path:line: text", and counts
// the facts re matches where r looks, after prior matches elsewhere.
func (r rule) violations(fset *token.FileSet, prior int, facts map[byte][]fact) (out []string, matched int) {
	re, in, ok := regexp.MustCompile(r.re), regexp.MustCompile(r.in), regexp.MustCompile(r.ok)
	hit := map[string]bool{} // texts repeat: the regexp runs once a text
	for _, k := range []byte(r.kinds) {
		for _, f := range facts[k] {
			h, seen := hit[f.text]
			if !seen {
				h = re.MatchString(f.text)
				hit[f.text] = h
			}
			if h && (r.tests || !f.test) && in.MatchString(f.where) {
				if matched++; r.ok == "" || !ok.MatchString(f.where) {
					out = append(out, fmt.Sprintf("%s: %s", fset.Position(f.pos), f.text))
				}
			}
		}
	}
	if matched += prior; r.n > 0 && matched != r.n {
		out = append(out, fmt.Sprintf("%d matches, want %d", matched, r.n))
	}
	sort.Strings(out)
	return out, matched
}

// module is the parsed module: its non-test files by directory, and the
// packages type-checked so far.
type module struct {
	fset *token.FileSet
	pkgs map[string][]*ast.File
	done map[string]*gotypes.Package
}

// Import type-checks a package of the module from its parsed files. A
// standard package is an empty stand-in, so its names stay untyped: the rules
// ask about the module's own types, and the test reads no file outside it.
func (m *module) Import(p string) (*gotypes.Package, error) {
	if m.done[p] == nil {
		m.done[p] = gotypes.NewPackage(p, path.Base(p))
		if files := m.pkgs[strings.TrimPrefix(p, "resultdb/")]; strings.HasPrefix(p, "resultdb/") && files != nil {
			m.done[p], _ = (&gotypes.Config{Importer: m, Error: func(error) {}}).Check(p, m.fset, files, nil)
		}
	}
	return m.done[p], nil
}

// typecheck type-checks the typed package, with extra as one more of its
// files unless extra is nil, and returns the types it found (nil when extra
// is in another package).
func (m *module) typecheck(extra *ast.File) *gotypes.Info {
	files := m.pkgs[typed]
	if extra != nil {
		if path.Dir(m.fset.File(extra.Pos()).Name()) != typed {
			return nil
		}
		files = append(files[:len(files):len(files)], extra)
	}
	info := &gotypes.Info{Types: map[ast.Expr]gotypes.TypeAndValue{}}
	(&gotypes.Config{Importer: m, Error: func(error) {}}).Check("resultdb/"+typed, m.fset, files, info)
	return info
}

// collect adds the facts of f to facts, its t facts from info.
func (m *module) collect(facts map[byte][]fact, f *ast.File, info *gotypes.Info) {
	p, fn := m.fset.File(f.Pos()).Name(), ""
	add := func(kind byte, n ast.Node, text string) {
		facts[kind] = append(facts[kind], fact{text, p + ":" + fn, strings.HasSuffix(p, "_test.go"), n.Pos()})
	}
	words := func(n ast.Node, text string) {
		for _, w := range strings.FieldsFunc(text, func(r rune) bool {
			return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' && r != '-'
		}) {
			add('w', n, strings.Trim(w, "-"))
		}
	}
	for _, g := range f.Comments {
		for _, c := range g.List {
			words(c, c.Text)
		}
	}
	str, callee := gotypes.ExprString, map[ast.Expr]bool{}
	for _, d := range f.Decls {
		fn = ""
		if d, ok := d.(*ast.FuncDecl); ok {
			fn = d.Name.Name
		}
		ast.Inspect(d, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && info != nil && info.Types[e].Type != nil {
				add('t', n, gotypes.TypeString(info.Types[e].Type, func(p *gotypes.Package) string { return p.Name() }))
			}
			switch n := n.(type) {
			case *ast.Ident:
				add('i', n, n.Name)
			case *ast.BasicLit:
				if n.Kind == token.STRING {
					words(n, n.Value)
				}
			case *ast.ImportSpec:
				add('m', n, n.Path.Value)
			case *ast.CallExpr:
				callee[n.Fun] = true
				args := exprs(n.Args[:min(len(n.Args), 1)])
				if len(n.Args) > 1 {
					args += ", …"
				}
				add('x', n, str(n.Fun)+"("+args+")")
			case *ast.SelectorExpr:
				if !callee[n] {
					add('x', n, str(n))
				}
			case *ast.ArrayType, *ast.MapType:
				add('x', n, str(n.(ast.Expr)))
			case *ast.CompositeLit:
				keys := ""
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						keys += str(kv.Key) + ":, "
					}
				}
				if n.Type != nil {
					keys = str(n.Type) + "{" + keys
				}
				add('x', n, strings.TrimSuffix(keys, ", ")+"}")
			case *ast.RangeStmt:
				add('x', n, "range "+str(n.X))
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					add('x', n, str(n))
				}
			case *ast.CaseClause:
				add('x', n, "case "+exprs(n.List))
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					add('a', l, str(l)+" "+n.Tok.String())
				}
			case *ast.FuncDecl:
				s := "func "
				if n.Recv != nil {
					s += "(" + fields(n.Recv) + ") "
				}
				if s += n.Name.Name; n.Type.TypeParams != nil {
					s += "[" + fields(n.Type.TypeParams) + "]"
				}
				add('f', n, s+strings.TrimPrefix(str(n.Type), "func"))
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					for _, fl := range st.Fields.List {
						add('s', fl, n.Name.Name+"."+fields(&ast.FieldList{List: []*ast.Field{fl}}))
					}
				}
			case *ast.ValueSpec:
				if n.Type != nil {
					add('s', n, exprs(n.Names)+" "+str(n.Type))
				}
			}
			return true
		})
	}
}

// fields renders a parameter or field list as Go source writes it
// ("n, degree int").
func fields(l *ast.FieldList) string {
	s := gotypes.ExprString(&ast.FuncType{Params: l})
	return s[len("func(") : len(s)-1]
}

// exprs renders a list of expressions as Go source writes it ("a, b").
func exprs[E ast.Expr](l []E) string {
	s := make([]string, len(l))
	for i, e := range l {
		s[i] = gotypes.ExprString(e)
	}
	return strings.Join(s, ", ")
}
