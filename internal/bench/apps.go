package bench

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/kvs"
	"repro/internal/sstable"
	"repro/internal/tpcc"
	"repro/internal/vecdb"
	"repro/internal/workload"
)

// App is one workload of the catalogue at one dataset size: how many
// bytes of paged memory it will occupy, known by arithmetic over its
// config before anything is built (the app package's Footprint, which
// shares its layout helper with the package's New), and how to build it
// inside a system. Local memory is sized from Footprint, so nothing
// builds a throw-away system to learn a size.
type App struct {
	Footprint int64
	// Build allocates and populates the app in sys. The cache is cold:
	// callers warm it (every catalogue app has WarmCache) once any
	// request-distribution knob is set.
	Build func(sys *core.System) workload.App
}

// catalogue lists the paper's workloads under the names adios-sim's -app
// flag and DESIGN.md's index use, each at its -short and full dataset
// size. The paper's absolute capacities (40 GB stores, BIGANN-100M) only
// set the working-set/local-cache ratio, which is kept at 20 %
// throughout; see DESIGN.md's substitution table.
var catalogue = []struct {
	name string
	app  func(short bool) App
}{
	{"micro", micro},
	{"memcached128", memcached128},
	{"memcached1024", memcached1024},
	{"rocksdb", rocksdb},
	{"tpcc", tpccApp},
	{"faiss", faiss},
}

// AppNames lists the catalogue in order.
func AppNames() []string {
	names := make([]string, len(catalogue))
	for i, e := range catalogue {
		names[i] = e.name
	}
	return names
}

// AppNamed returns the catalogue app of that name (case-insensitive) at
// its -short or its full dataset size.
func AppNamed(name string, short bool) (App, error) {
	for _, e := range catalogue {
		if strings.EqualFold(e.name, name) {
			return e.app(short), nil
		}
	}
	return App{}, fmt.Errorf("unknown app %q (have %s)", name, strings.Join(AppNames(), ", "))
}

// with returns the app with f applied to whatever it builds: how an
// experiment wraps or tunes a catalogue app without owning a copy of it.
func (a App) with(f func(sys *core.System, app workload.App) workload.App) App {
	build := a.Build
	a.Build = func(sys *core.System) workload.App { return f(sys, build(sys)) }
	return a
}

// sized picks a dataset size.
func sized[T any](short bool, small, full T) T {
	if short {
		return small
	}
	return full
}

// microArrayBytes is the microbenchmark working set (the paper uses
// 40 GB; only the local-memory *ratio* affects behaviour, see DESIGN.md).
const microArrayBytes int64 = 64 << 20

// arrayApp is the §2/§5.1 random-indirection microbenchmark over an
// array of the given size.
func arrayApp(bytes int64) App {
	return App{Footprint: bytes, Build: func(sys *core.System) workload.App {
		return workload.NewArrayApp(sys.Mgr, sys.Mem, bytes)
	}}
}

func micro(bool) App { return arrayApp(microArrayBytes) }

// memcachedConfig is the Memcached GET workload with the given value
// size.
func memcachedConfig(short bool, valueSize int) kvs.Config {
	keys := sized[int64](short, 120_000, 700_000)
	if valueSize >= 1024 {
		keys = sized[int64](short, 30_000, 160_000)
	}
	return kvs.DefaultConfig(keys, valueSize)
}

func kvsApp(cfg kvs.Config) App {
	return App{Footprint: kvs.Footprint(cfg), Build: func(sys *core.System) workload.App {
		return kvs.New(sys.Mgr, sys.Mem, cfg)
	}}
}

func memcached128(short bool) App  { return kvsApp(memcachedConfig(short, 128)) }
func memcached1024(short bool) App { return kvsApp(memcachedConfig(short, 1024)) }

// rocksdbConfig is the RocksDB workload: 99 % GET / 1 % SCAN(100) over
// 1 KiB values.
func rocksdbConfig(short bool) sstable.Config {
	return sstable.DefaultConfig(sized[int64](short, 40_000, 180_000), 1024)
}

func sstableApp(cfg sstable.Config) App {
	return App{Footprint: sstable.Footprint(cfg), Build: func(sys *core.System) workload.App {
		return sstable.New(sys.Mgr, sys.Mem, cfg)
	}}
}

func rocksdb(short bool) App { return sstableApp(rocksdbConfig(short)) }

// tpccApp is the Silo/TPC-C workload: two warehouses, or one shrunken
// warehouse under -short.
func tpccApp(short bool) App {
	cfg := tpcc.DefaultConfig(2)
	if short {
		cfg = tpcc.DefaultConfig(1)
		cfg.CustomersPerDistrict = 300
		cfg.ItemCount = 5000
		cfg.InitialOrders = 300
		cfg.OrderCapacity = 2000
	}
	return App{Footprint: tpcc.Footprint(cfg), Build: func(sys *core.System) workload.App {
		return tpcc.New(sys.Env, sys.Mgr, sys.Mem, cfg)
	}}
}

// faiss is the Faiss/BIGANN-like workload. The dataset and centroid
// training (the expensive part) are done once, at the first Build, in a
// Blueprint every later Build of this App value re-instantiates — so a
// sweep shares one, and Table 2, which only reads Footprint, pays for
// none.
func faiss(short bool) App {
	cfg := vecdb.DefaultConfig(sized(short, 30_000, 250_000))
	blueprint := sync.OnceValue(func() *vecdb.Blueprint { return vecdb.NewBlueprint(cfg) })
	return App{Footprint: vecdb.Footprint(cfg), Build: func(sys *core.System) workload.App {
		return blueprint().Instantiate(sys.Mgr, sys.Mem)
	}}
}

func table2(r *run) {
	r.printf("\n# Table 2: real-world workloads\n")
	r.printf("%-12s %-10s %-16s %-12s %-14s\n", "application", "type", "workload", "paper_mem", "repro_mem")
	for _, row := range []struct {
		name, typ, wl, paper string
		app                  func(short bool) App
	}{
		{"Memcached", "KVS", "GET", "40GB", memcached128},
		{"RocksDB", "KVS", "GET/SCAN", "40GB", rocksdb},
		{"Silo", "OLTP", "TPC-C", "20GB", tpccApp},
		{"Faiss", "VectorDB", "BIGANN-like", "48GB", faiss},
	} {
		r.printf("%-12s %-10s %-16s %-12s %-14.1f MiB\n", row.name, row.typ, row.wl, row.paper,
			float64(row.app(r.Short).Footprint)/(1<<20))
	}
}
