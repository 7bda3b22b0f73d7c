package migrate

import (
	"testing"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
)

// deadNodes is a scripted failure detector.
type deadNodes map[int]bool

func (d deadNodes) Live(n int) bool   { return !d[n] }
func (d deadNodes) ReportTimeout(int) {}

// Crash repair and migration are two planners over two re-home engines,
// and each copy takes a few microseconds. Lined up on one page: node 2
// dies, and repair restores page 1's replica (slot 1, on node 2) from its
// primary on node 1 to the first live node holding no copy, node 0, while
// the migrator moves the same page's primary from node 1 to node 0. The
// two copies run side by side. Started first, the migration's lands first,
// and unless a planner checks at landing for the other engine's copy of
// its page in flight, the repair then points the replica slot at the node
// that now holds the primary: two slots answer one node
// (migrate/owner-dup), and the page keeps one live copy where it needs two
// (paging/repair-converge). Either way round, repair must land and the
// migration give way.
func TestRepairAndMigrationNeverLandOnOneNode(t *testing.T) {
	for _, migrationFirst := range []bool{true, false} {
		t.Run(map[bool]string{true: "migration-first", false: "repair-first"}[migrationFirst], func(t *testing.T) {
			raceRepairAndMigration(t, migrationFirst)
		})
	}
}

func raceRepairAndMigration(t *testing.T, migrationFirst bool) {
	const nodes = 4
	env := sim.NewEnv(1)
	fab := rdma.NewFabric(env, rdma.DefaultConfig(), nodes)
	mn := make([]*memnode.Node, nodes)
	for i := range mn {
		mn[i] = memnode.New(1 << 24)
	}
	cluster := memnode.NewCluster(mn, paging.PageSize, memnode.Placement{Nodes: nodes, Block: 1, Replicas: 2})
	mgr := paging.NewManager(env, paging.DefaultConfig(16*paging.PageSize))
	sp := mgr.NewSpace("data", cluster.MustAlloc("data", nodes*paging.PageSize))
	mgr.Start(paging.Wiring{Fabric: fab, Health: deadNodes{2: true}})
	rep := paging.NewRepairer(mgr, fab)
	mg := New(mgr, cluster, fab, Config{Enabled: true})

	mg.Queue(paging.RehomeJob{Space: sp, VPN: 1, Src: 1, Dst: 0})
	mg.queued[pageKey{sp.ID(), 1}] = true
	if migrationFirst {
		mg.Kick()
		rep.NodeDown(2)
	} else {
		rep.NodeDown(2)
		mg.Kick()
	}
	env.Run(sim.Millis(1))

	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.CheckReplication(); err != nil {
		t.Fatal(err)
	}
	if rep.Repaired.Value() != 2 || sp.Owner(1, 0) != 1 || sp.Owner(1, 1) != 0 {
		t.Fatalf("repaired %d; page 1 answers nodes %d, %d — want the repair landed (1, 0) and the migration dropped",
			rep.Repaired.Value(), sp.Owner(1, 0), sp.Owner(1, 1))
	}
	if mg.PagesMoved.Value() != 0 || mg.Aborted.Value() != 1 {
		t.Fatalf("migrations landed %d, dropped %d; want 0, 1", mg.PagesMoved.Value(), mg.Aborted.Value())
	}
}
