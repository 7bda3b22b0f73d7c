package bench

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kvs"
	"repro/internal/sim"
	"repro/internal/sstable"
	"repro/internal/tpcc"
	"repro/internal/vecdb"
	"repro/internal/workload"
)

// builtSize is what an app occupies once it exists: the bytes its build
// allocated on the system's memory nodes.
func builtSize(app App) int64 {
	sys := core.NewSystem(core.Preset(core.Adios, max(app.Footprint/5, 1<<20)))
	app.Build(sys)
	return sys.Mem.Allocated()
}

// TestCatalogueFootprintMatchesBuiltApp: local memory is sized from
// App.Footprint before anything is built, so it must be exactly what the
// built app then occupies. Each app package's Footprint shares a layout
// helper with its New; this holds the pair together from outside, at
// both catalogue sizes (go test -short skips the full-size TPC-C and
// Faiss builds) and at a tiny config of each package.
func TestCatalogueFootprintMatchesBuiltApp(t *testing.T) {
	for _, name := range AppNames() {
		for _, short := range []bool{true, false} {
			if !short && testing.Short() && (name == "tpcc" || name == "faiss") {
				continue // seconds each to populate
			}
			app, err := AppNamed(name, short)
			if err != nil {
				t.Fatal(err)
			}
			if got := builtSize(app); got != app.Footprint {
				t.Errorf("%s (short=%v): Footprint %d, built app occupies %d", name, short, app.Footprint, got)
			}
		}
	}
	tinyTPCC := tpcc.DefaultConfig(1)
	tinyTPCC.CustomersPerDistrict, tinyTPCC.ItemCount, tinyTPCC.InitialOrders, tinyTPCC.OrderCapacity = 30, 100, 30, 64
	tinyVec := vecdb.DefaultConfig(500)
	tinyVec.NList, tinyVec.NProbe = 8, 2
	for name, app := range map[string]App{
		"kvs":     kvsApp(kvs.DefaultConfig(100, 33)),
		"sstable": sstableApp(sstable.DefaultConfig(77, 100)),
		"tpcc": {Footprint: tpcc.Footprint(tinyTPCC), Build: func(sys *core.System) workload.App {
			return tpcc.New(sys.Env, sys.Mgr, sys.Mem, tinyTPCC)
		}},
		"vecdb": {Footprint: vecdb.Footprint(tinyVec), Build: func(sys *core.System) workload.App {
			return vecdb.NewBlueprint(tinyVec).Instantiate(sys.Mgr, sys.Mem)
		}},
	} {
		if got := builtSize(app); got != app.Footprint {
			t.Errorf("tiny %s: Footprint %d, built app occupies %d", name, app.Footprint, got)
		}
	}
}

// TestCatalogueFullSizes pins the full-resolution datasets adios-sim's
// -app and the figures share now that both read the catalogue (they
// were typed twice): 700 000 / 160 000 / 180 000 keys, TPC-C W=2,
// 250 000 vectors.
func TestCatalogueFullSizes(t *testing.T) {
	for name, want := range map[string]int64{
		"micro":         64 << 20,
		"memcached128":  kvs.Footprint(kvs.DefaultConfig(700_000, 128)),
		"memcached1024": kvs.Footprint(kvs.DefaultConfig(160_000, 1024)),
		"rocksdb":       sstable.Footprint(sstable.DefaultConfig(180_000, 1024)),
		"tpcc":          tpcc.Footprint(tpcc.DefaultConfig(2)),
		"faiss":         vecdb.Footprint(vecdb.DefaultConfig(250_000)),
	} {
		app, err := AppNamed(strings.ToUpper(name), false) // -app is case-insensitive
		if err != nil {
			t.Fatal(err)
		}
		if app.Footprint != want {
			t.Errorf("%s: full-size footprint %d, want %d", name, app.Footprint, want)
		}
	}
	if _, err := AppNamed("nonsense", false); err == nil || !strings.Contains(err.Error(), strings.Join(AppNames(), ", ")) {
		t.Fatalf("unknown app: error %v does not list the catalogue", err)
	}
}

// TestNoSizingProbes fails if non-test code under cmd/, internal/ or
// examples/ builds a throw-away system to learn an app's size — the
// `Preset(mode, 1<<22)` probe 13 sites used to carry, two of them racily
// — instead of reading a Footprint.
func TestNoSizingProbes(t *testing.T) {
	for _, root := range []string{"../../cmd", "../../internal", "../../examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for i, line := range strings.Split(string(src), "\n") {
				if strings.Contains(line, "Preset(") && strings.Contains(strings.ReplaceAll(line, " ", ""), "1<<22") {
					t.Errorf("%s:%d: sizing probe: %s", path, i+1, strings.TrimSpace(line))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// scribble overwrites every exported scalar field of the record v points
// to, nested structs included, with non-zero garbage: the state a handler
// may leave a message record in before its packet is recycled.
func scribble(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !v.Type().Field(i).IsExported() {
			continue
		}
		switch f.Kind() {
		case reflect.Struct:
			scribble(f)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int32, reflect.Int64:
			f.SetInt(77)
		case reflect.Uint8, reflect.Uint32, reflect.Uint64:
			f.SetUint(77)
		case reflect.String:
			f.SetString("stale")
		}
	}
}

// exported lists the exported fields of a message (dereferenced if it is
// a record), which is what a request means; unexported ones are handler
// scratch.
func exported(msg any) []any {
	v := reflect.Indirect(reflect.ValueOf(msg))
	if v.Kind() != reflect.Struct {
		return []any{msg}
	}
	var out []any
	for i := 0; i < v.NumField(); i++ {
		if v.Type().Field(i).IsExported() {
			out = append(out, v.Field(i).Interface())
		}
	}
	return out
}

// TestNextRequestReuseHintChangesNothing: for every catalogue app, a
// NextRequest handed a recycled record — whatever a handler left in it —
// produces the same message, the same wire size and the same RNG state
// as one handed nil, draw for draw; and every app but faiss (which
// ignores the hint) does fill the record it was handed.
func TestNextRequestReuseHintChangesNothing(t *testing.T) {
	for _, name := range AppNames() {
		t.Run(name, func(t *testing.T) {
			entry, err := AppNamed(name, true)
			if err != nil {
				t.Fatal(err)
			}
			app := entry.Build(core.NewSystem(core.Preset(core.Adios, entry.Footprint/5)))
			fresh, recycled := sim.NewRNG(42), sim.NewRNG(42)
			var hint any
			for i := 0; i < 10_000; i++ {
				want, wantBytes := app.NextRequest(fresh, nil)
				got, gotBytes := app.NextRequest(recycled, hint)
				if gotBytes != wantBytes || !reflect.DeepEqual(exported(got), exported(want)) {
					t.Fatalf("draw %d: recycled record gives %+v (%d bytes), a fresh one %+v (%d bytes)", i, got, gotBytes, want, wantBytes)
				}
				if i > 0 && name != "faiss" && got != hint {
					t.Fatalf("draw %d: the hint %T was not reused", i, hint)
				}
				if hint = got; reflect.ValueOf(got).Kind() == reflect.Pointer {
					scribble(reflect.ValueOf(got).Elem())
				}
			}
			if a, b := fresh.Int63n(1<<62), recycled.Int63n(1<<62); a != b {
				t.Fatalf("RNG streams diverged: %d vs %d", a, b)
			}
		})
	}
}

// TestCatalogueAppsAreNative: every catalogue app runs as a native
// stepper — core.StartApp finds its StepHandler, and over a short run that
// completes requests the kernel counts no coroutine switch at all — and so
// do the experiments' variants of them (wrappers embed the app, so the
// method is promoted) and the compute ablation app. TPC-C included: its
// transactions and B-tree descents are phase steppers too.
func TestCatalogueAppsAreNative(t *testing.T) {
	apps := map[string]func(bool) App{"memcached-zipf": memcachedZipf, "rocksdb-guided": rocksdbGuided,
		"micro-by-stripe": microByStripe, "compute": compute}
	for _, name := range AppNames() {
		apps[name] = func(short bool) App {
			app, err := AppNamed(name, short)
			if err != nil {
				t.Fatal(err)
			}
			return app
		}
	}
	for name, app := range apps {
		entry := app(true)
		sys := core.NewSystem(core.Preset(core.Adios, entry.Footprint/5))
		a := entry.Build(sys)
		sys.StartApp(a)
		if !sys.Sched.FlatTier() {
			t.Errorf("%s: FlatTier() = false", name)
		}
		rps, window := 200_000.0, sim.Millis(2)
		if name == "faiss" { // a query scans for hundreds of microseconds
			rps, window = 2_000, sim.Millis(10)
		}
		res := sys.Run(a, rps, 0, window)
		if sw := sys.Env.KernelStats().Switches; res.Completed == 0 || sw != 0 {
			t.Errorf("%s: %d requests completed with %d coroutine switches", name, res.Completed, sw)
		}
	}
}
