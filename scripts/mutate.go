//go:build ignore

// mutate runs mutants of the module: each is one source edit, built and
// tested through the go command's -overlay flag, which maps a tree file
// to a rewritten copy in a temporary directory, so the working tree is
// never written. Standard library only.
//
// Usage, from the repository root:
//
//	go run ./scripts/mutate.go -smoke [-race]
//	go run ./scripts/mutate.go -sample N [-seed S]
//	go run ./scripts/mutate.go -list
//
// -smoke applies each seeded bug of
// internal/simcheck/explore/testdata/mutants.txt in turn and runs
// `go test ./internal/simcheck/explore -run TestMutationsAreCaught
// -args -mutant=NAME` (with -race when given), which asserts that the
// bug's expected oracle fires with the identical violation on a re-run.
// It fails when a bug is not caught or fewer than three distinct oracles
// fire across the set.
//
// Otherwise the mutants are enumerated over the non-test files of the
// packages below, one per site and operator:
//
//	rel     a relational operator's boundary moved by one (< <=, > >=)
//	lhs     the left operand of && or || dropped
//	rhs     the right operand of && or || dropped
//	del     a statement of a block deleted (call, assignment, ++ / --)
//	int+1   an integer literal plus one
//
// Each mutant is identified by its file, enclosing function, operator,
// the text of the node it edits (for int+1 the node holding the
// literal) and the ordinal among equal (function, operator, text)
// triples; no line number, so an id survives unrelated edits. -sample N
// draws N mutants that build (seeded by -seed) and runs each through
// the stages below, stopping at the first that fails:
//
//	swarm   adios-check -n 2000 -short, built with -tags simcheck
//	pkg     go test of the mutated package
//	tier1   go test ./...
//	armed   go test -tags simcheck ./...
//
// and prints one line: the id, then the stage that killed it or
// `survived`, then `pin-only` when every failing test of the killing
// stage is a byte pin (a digest or golden comparison). A stage that
// outlives its timeout (four times the unmutated tree's time plus a
// minute) has its whole process group killed and counts as a kill. A
// survivor named in scripts/mutate_equiv.txt (one `id  reason` per
// line, # comments) is an accepted equivalent. The
// exit status is 1 when a survivor is not listed or a listed id is no
// longer a mutant or was killed, 2 when the unmutated tree fails a stage.
// -list prints every id with its position and replacement text.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// packages are the directories whose non-test files are mutated.
var packages = []string{"paging", "sched", "rdma", "migrate", "sim", "memnode", "ethernet"}

const (
	namedFile = "internal/simcheck/explore/testdata/mutants.txt"
	equivFile = "scripts/mutate_equiv.txt"
)

// pinTest names the tests that compare a run's bytes with a recorded
// digest or golden file.
var pinTest = regexp.MustCompile(`Pinned|Golden|^TestShortCSVDigestsMatchTable$|^TestStepperMatchesReference$|^TestBlockingMatchesNative`)

// mutant is one edit: replace src[off:end] of file with repl.
type mutant struct {
	id       string
	file     string // relative to the repository root
	pkg      string
	off, end int
	repl     string
	pos      token.Position
}

func main() {
	smoke := flag.Bool("smoke", false, "run the named seeded bugs against their scenarios")
	race := flag.Bool("race", false, "pass -race to the smoke's go test")
	sample := flag.Int("sample", 0, "number of buildable mutants to draw and run")
	seed := flag.Int64("seed", 1, "seed of the draw")
	list := flag.Bool("list", false, "print every mutant id with its position")
	flag.Parse()

	var err error
	if tmp, err = os.MkdirTemp("", "mutate"); err != nil {
		fatal(err)
	}
	go func() { // an interrupted run leaves no process or temp file behind
		c := make(chan os.Signal, 1)
		signal.Notify(c, os.Interrupt, syscall.SIGTERM)
		<-c
		exit(1)
	}()

	switch {
	case *smoke:
		exit(runSmoke(*race))
	case *list:
		for _, m := range enumerate() {
			fmt.Printf("%s\t%s:%d\t%q\n", m.id, m.file, m.pos.Line, m.repl)
		}
	case *sample > 0:
		exit(runSample(*sample, *seed))
	default:
		flag.Usage()
		exit(2)
	}
	exit(0)
}

// tmp holds the mutated file, the overlay map and the swarm binary.
var tmp string

// exit stops the running command's process group, removes tmp and
// exits.
func exit(code int) {
	killCurrent()
	if tmp != "" {
		os.RemoveAll(tmp)
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mutate:", err)
	exit(2)
}

// overlay writes file into tmp with old, at byte offset off (or at its
// occurrence when off < 0: tier-1's TestNamedEditsMatchOnce holds each
// named edit to exactly one), replaced by repl, then the -overlay map
// naming the copy, and returns the map's path.
func overlay(file, old, repl string, off int) string {
	abs, err := filepath.Abs(file)
	if err != nil {
		fatal(err)
	}
	src, err := os.ReadFile(abs)
	if err != nil {
		fatal(err)
	}
	if off < 0 {
		off = strings.Index(string(src), old)
	}
	out := append(append(append([]byte{}, src[:off]...), repl...), src[off+len(old):]...)
	mutated := filepath.Join(tmp, filepath.Base(file))
	if err := os.WriteFile(mutated, out, 0o644); err != nil {
		fatal(err)
	}
	js, _ := json.Marshal(map[string]any{"Replace": map[string]string{abs: mutated}})
	ov := filepath.Join(tmp, "overlay.json")
	if err := os.WriteFile(ov, js, 0o644); err != nil {
		fatal(err)
	}
	return ov
}

// current is the process group of the command running now, 0 if none.
var current atomic.Int64

func killCurrent() {
	if pg := current.Load(); pg > 0 {
		syscall.Kill(-int(pg), syscall.SIGKILL)
	}
}

// command runs name with args in its own process group and returns its
// combined output and whether it succeeded; past timeout (0: none) the
// whole group is killed and the run counts as failed.
func command(timeout time.Duration, name string, args ...string) (string, bool) {
	var out bytes.Buffer
	cmd := exec.Command(name, args...)
	cmd.Stdout, cmd.Stderr = &out, &out
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		fatal(err)
	}
	current.Store(int64(cmd.Process.Pid))
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var limit <-chan time.Time
	if timeout > 0 {
		limit = time.After(timeout)
	}
	select {
	case err := <-done:
		killCurrent() // anything the command left running
		current.Store(0)
		return out.String(), err == nil
	case <-limit:
		killCurrent()
		<-done
		current.Store(0)
		return out.String(), false
	}
}

// readNamed parses the seeded bugs: name, file, old and new as Go
// string literals.
func readNamed() [][4]string {
	raw, err := os.ReadFile(namedFile)
	if err != nil {
		fatal(err)
	}
	var named [][4]string
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		rest := strings.TrimSpace(line[len(f[0]):])
		rest = strings.TrimSpace(rest[len(f[1]):])
		var e [4]string
		e[0], e[1] = f[0], f[1]
		for i := 2; i < 4; i++ {
			q, err := strconv.QuotedPrefix(rest)
			if err != nil {
				fatal(fmt.Errorf("%s: %s: %v", namedFile, f[0], err))
			}
			e[i], _ = strconv.Unquote(q)
			rest = strings.TrimSpace(rest[len(q):])
		}
		named = append(named, e)
	}
	return named
}

func runSmoke(race bool) int {
	caught := regexp.MustCompile(`caught by (([^:\s]+).*)`)
	oracles := map[string]bool{}
	failed := 0
	for _, e := range readNamed() {
		ov := overlay(e[1], e[2], e[3], -1)
		args := []string{"test", "-overlay", ov, "-count=1", "-v"}
		if race {
			args = append(args, "-race")
		}
		args = append(args, "./internal/simcheck/explore", "-run", "^TestMutationsAreCaught$", "-args", "-mutant="+e[0])
		out, ok := command(0, "go", args...)
		m := caught.FindStringSubmatch(out)
		if !ok || m == nil {
			fmt.Printf("%s  NOT CAUGHT\n%s\n", e[0], out)
			failed++
			continue
		}
		fmt.Printf("%s  caught by %s\n", e[0], m[1])
		oracles[m[2]] = true
	}
	if len(oracles) < 3 {
		fmt.Printf("only %d distinct oracles fired across the set\n", len(oracles))
		failed++
	}
	if failed > 0 {
		return 1
	}
	fmt.Printf("all %d seeded bugs caught, %d distinct oracles\n", len(readNamed()), len(oracles))
	return 0
}

// enumerate lists every mutant of the mutated packages' non-test files
// in the default build, in package, file and source order.
func enumerate() []mutant {
	var all []mutant
	for _, pkg := range packages {
		out, err := exec.Command("go", "list", "-f", `{{join .GoFiles "\n"}}`, "./internal/"+pkg).Output()
		if err != nil {
			fatal(fmt.Errorf("go list %s: %v", pkg, err))
		}
		for _, name := range strings.Fields(string(out)) {
			all = append(all, mutantsOf(pkg, filepath.Join("internal", pkg, name))...)
		}
	}
	return all
}

func mutantsOf(pkg, file string) []mutant {
	src, err := os.ReadFile(file)
	if err != nil {
		fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, src, 0)
	if err != nil {
		fatal(err)
	}
	off := func(p token.Pos) int { return fset.Position(p).Offset }
	text := func(n ast.Node) string { return string(src[off(n.Pos()):off(n.End())]) }
	var ms []mutant
	seen := map[string]int{}
	add := func(fn, op string, ctx ast.Node, from, to int, repl string) {
		key := fmt.Sprintf("%s %s %s %s", strings.TrimPrefix(file, "internal/"), fn, op, strconv.Quote(strings.Join(strings.Fields(text(ctx)), " ")))
		id := fmt.Sprintf("%s#%d", key, seen[key])
		seen[key]++
		tf := fset.File(f.Pos())
		ms = append(ms, mutant{id: id, file: file, pkg: pkg, off: from, end: to, repl: repl, pos: tf.Position(tf.Pos(from))})
	}
	var units []ast.Node // functions, and each spec of a declaration block
	for _, decl := range f.Decls {
		if g, ok := decl.(*ast.GenDecl); ok {
			for _, spec := range g.Specs {
				units = append(units, spec)
			}
		} else {
			units = append(units, decl)
		}
	}
	for _, unit := range units {
		fn := unitName(unit)
		var stack []ast.Node
		ast.Inspect(unit, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			var parent ast.Node
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.BinaryExpr:
				swap := map[token.Token]string{token.LSS: "<=", token.LEQ: "<", token.GTR: ">=", token.GEQ: ">"}
				if r, ok := swap[n.Op]; ok {
					o := off(n.OpPos)
					add(fn, "rel", n, o, o+len(n.Op.String()), r)
				}
				if n.Op == token.LAND || n.Op == token.LOR {
					add(fn, "lhs", n, off(n.Pos()), off(n.End()), text(n.Y))
					add(fn, "rhs", n, off(n.Pos()), off(n.End()), text(n.X))
				}
			case *ast.BasicLit:
				if n.Kind != token.INT || parent == nil {
					break
				}
				if v, err := strconv.ParseInt(n.Value, 0, 64); err == nil {
					add(fn, "int+1", parent, off(n.Pos()), off(n.End()), strconv.FormatInt(v+1, 10))
				}
			case *ast.BlockStmt:
				deletable(n.List, fn, add, off)
			case *ast.CaseClause:
				deletable(n.Body, fn, add, off)
			case *ast.CommClause:
				deletable(n.Body, fn, add, off)
			}
			return true
		})
	}
	return ms
}

// deletable adds a del mutant for each call, assignment (not a
// declaration) and increment of a statement list.
func deletable(list []ast.Stmt, fn string, add func(string, string, ast.Node, int, int, string), off func(token.Pos) int) {
	for _, s := range list {
		switch s := s.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				continue
			}
		case *ast.ExprStmt, *ast.IncDecStmt:
		default:
			continue
		}
		add(fn, "del", s, off(s.Pos()), off(s.End()), "")
	}
}

// unitName names a function, a method (Type.Method) or the first name a
// spec declares.
func unitName(u ast.Node) string {
	switch d := u.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil || len(d.Recv.List) == 0 {
			return d.Name.Name
		}
		t := d.Recv.List[0].Type
		if s, ok := t.(*ast.StarExpr); ok {
			t = s.X
		}
		if ix, ok := t.(*ast.IndexExpr); ok {
			t = ix.X
		}
		if ix, ok := t.(*ast.IndexListExpr); ok {
			t = ix.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + d.Name.Name
		}
		return d.Name.Name
	case *ast.ValueSpec:
		return d.Names[0].Name
	case *ast.TypeSpec:
		return d.Name.Name
	}
	return "-"
}

// runner holds the unmutated tree's stage times, from which each
// stage's timeout follows.
type runner struct {
	base map[string]time.Duration
}

func newRunner() *runner {
	r := &runner{base: map[string]time.Duration{}}
	for _, st := range []string{"swarm", "tier1", "armed"} {
		r.baseline(st, "")
	}
	return r
}

// baseline times stage st (for pkg, of package pkg) on the unmutated
// tree, uncached; a failure there leaves nothing to compare against.
func (r *runner) baseline(st, pkg string) time.Duration {
	key := st
	if st == "pkg" {
		key += " " + pkg
	}
	if d, ok := r.base[key]; ok {
		return d
	}
	t0 := time.Now()
	if out, ok := r.stage(st, pkg, "", 0); !ok {
		fatal(fmt.Errorf("stage %s %s fails on the unmutated tree:\n%s", st, pkg, out))
	}
	r.base[key] = time.Since(t0)
	return r.base[key]
}

// stage runs one stage with the overlay ov ("" for none: the unmutated
// tree, whose tests then run uncached so that their time is known).
func (r *runner) stage(st, pkg, ov string, timeout time.Duration) (string, bool) {
	goArgs := func(args ...string) []string {
		if ov == "" {
			if args[0] == "test" {
				args = append(args[:1:1], append([]string{"-count=1"}, args[1:]...)...)
			}
			return args
		}
		return append(args[:1:1], append([]string{"-overlay", ov}, args[1:]...)...)
	}
	var out string
	var ok bool
	switch st {
	case "swarm":
		bin := filepath.Join(tmp, "adios-check")
		t0 := time.Now()
		if out, ok = command(timeout, "go", goArgs("build", "-tags", "simcheck", "-o", bin, "./cmd/adios-check")...); !ok {
			return out, false
		}
		if timeout > 0 {
			timeout -= time.Since(t0)
		}
		out, ok = command(timeout, bin, "-n", "2000", "-short", "-seed", "1")
	case "pkg":
		out, ok = command(timeout, "go", goArgs("test", "./internal/"+pkg)...)
	case "tier1":
		out, ok = command(timeout, "go", goArgs("test", "./...")...)
	case "armed":
		out, ok = command(timeout, "go", goArgs("test", "-tags", "simcheck", "./...")...)
	}
	return out, ok
}

// run builds m and runs its stages; it returns the killing stage
// ("unbuildable", "survived") and whether only byte pins failed.
func (r *runner) run(m mutant) (string, bool) {
	src, err := os.ReadFile(m.file)
	if err != nil {
		fatal(err)
	}
	ov := overlay(m.file, string(src[m.off:m.end]), m.repl, m.off)
	if _, ok := command(0, "go", "build", "-overlay", ov, "./internal/"+m.pkg); !ok {
		return "unbuildable", false
	}
	for _, st := range []string{"swarm", "pkg", "tier1", "armed"} {
		limit := 4*r.baseline(st, m.pkg) + time.Minute
		if out, ok := r.stage(st, m.pkg, ov, limit); !ok {
			return st, st != "swarm" && pinOnly(out)
		}
	}
	return "survived", false
}

// pinOnly reports whether every failure in a go test output is a
// failing byte-pin test: no build failure, panic outside a test or
// timeout.
func pinOnly(out string) bool {
	fails := regexp.MustCompile(`(?m)^--- FAIL: (\S+)`).FindAllStringSubmatch(out, -1)
	if len(fails) == 0 {
		return false
	}
	for _, f := range fails {
		if !pinTest.MatchString(f[1]) {
			return false
		}
	}
	// Every FAIL package line must be explained by a --- FAIL test.
	return !strings.Contains(out, "[build failed]") && !strings.Contains(out, "panic: test timed out")
}

func result(id, stage string, pin bool) string {
	s := id + "  " + stage
	if pin {
		s += " pin-only"
	}
	return s
}

func runSample(n int, seed int64) int {
	all := enumerate()
	ids := map[string]bool{}
	for _, m := range all {
		ids[m.id] = true
	}
	equiv := readEquiv()
	r := newRunner()
	type tally struct{ n, pin int }
	byStage := map[string]*tally{}
	byPkg := map[string]map[string]int{}
	var untriaged, stale []string
	killed := map[string]bool{}
	done := 0
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(all)) {
		if done == n {
			break
		}
		m := all[i]
		t0 := time.Now()
		stage, pin := r.run(m)
		line := result(m.id, stage, pin)
		if stage == "survived" && equiv[m.id] {
			line += " equivalent"
		}
		fmt.Printf("%s  (%s)\n", line, time.Since(t0).Round(time.Second))
		if stage == "unbuildable" {
			continue
		}
		done++
		if byStage[stage] == nil {
			byStage[stage] = &tally{}
		}
		byStage[stage].n++
		if pin {
			byStage[stage].pin++
		}
		if byPkg[m.pkg] == nil {
			byPkg[m.pkg] = map[string]int{}
		}
		byPkg[m.pkg][stage]++
		switch {
		case stage == "survived" && !equiv[m.id]:
			untriaged = append(untriaged, m.id)
		case stage != "survived":
			killed[m.id] = true
		}
	}
	fmt.Printf("\n%d mutants of %d candidates (seed %d)\n", done, len(all), seed)
	for _, st := range []string{"swarm", "pkg", "tier1", "armed", "survived"} {
		if t := byStage[st]; t != nil {
			fmt.Printf("  %-9s %4d  %5.1f%%  pin-only %d\n", st, t.n, 100*float64(t.n)/float64(done), t.pin)
		}
	}
	pkgs := make([]string, 0, len(byPkg))
	for p := range byPkg {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	for _, p := range pkgs {
		c, total := byPkg[p], 0
		for _, v := range c {
			total += v
		}
		fmt.Printf("  %-9s %4d  swarm %d  pkg %d  tier1 %d  armed %d  survived %d\n",
			p, total, c["swarm"], c["pkg"], c["tier1"], c["armed"], c["survived"])
	}
	for id := range equiv {
		if !ids[id] || killed[id] {
			stale = append(stale, id)
		}
	}
	sort.Strings(stale)
	for _, id := range untriaged {
		fmt.Printf("untriaged survivor: %s\n", id)
	}
	for _, id := range stale {
		fmt.Printf("stale %s line: %s\n", equivFile, id)
	}
	if len(untriaged) > 0 || len(stale) > 0 {
		return 1
	}
	return 0
}

// readEquiv reads the accepted equivalents: an id, two spaces, a reason.
func readEquiv() map[string]bool {
	raw, err := os.ReadFile(equivFile)
	if err != nil {
		fatal(err)
	}
	equiv := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		id, _, ok := strings.Cut(line, "  ")
		if !ok {
			fatal(fmt.Errorf("%s: no reason: %s", equivFile, line))
		}
		equiv[id] = true
	}
	return equiv
}
