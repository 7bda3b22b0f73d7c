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

// twoNodes builds a migrator over two nodes of nodeBytes each holding
// one page of a striped space apiece, its health read from dead.
func twoNodes(nodeBytes int64, dead deadNodes) (*sim.Env, *paging.Space, *Migrator) {
	env := sim.NewEnv(1)
	fab := rdma.NewFabric(env, rdma.DefaultConfig(), 2)
	mn := []*memnode.Node{memnode.New(nodeBytes), memnode.New(nodeBytes)}
	cluster := memnode.NewCluster(mn, paging.PageSize, memnode.Placement{Nodes: 2, Block: 1, Replicas: 1})
	mgr := paging.NewManager(env, paging.DefaultConfig(16*paging.PageSize))
	sp := mgr.NewSpace("data", cluster.MustAlloc("data", 2*paging.PageSize))
	mgr.Start(paging.Wiring{Fabric: fab, Health: dead})
	mg := New(mgr, cluster, fab, Config{Enabled: true})
	mg.Queue(paging.RehomeJob{Space: sp, VPN: 1, Src: 1, Dst: 0})
	mg.queued[pageKey{sp.ID(), 1}] = true
	mg.Kick()
	return env, sp, mg
}

// A migration whose destination is declared dead while its copy is in
// flight is stale at the landing: the migrator drops it — the owner
// table stays, the drop is counted, and the page may be planned again.
func TestStaleMigrationIsDroppedAtLanding(t *testing.T) {
	dead := deadNodes{}
	env, sp, mg := twoNodes(1<<24, dead)
	// Planned against a live destination at time 0; dead one cycle into
	// the copy, well before the landing.
	env.At(1, func() { dead[0] = true })
	env.Run(sim.Millis(1))

	if sp.Owner(1, 0) != 1 || mg.PagesMoved.Value() != 0 || mg.Aborted.Value() != 1 {
		t.Fatalf("page 1 answers node %d, moved %d, dropped %d; want 1, 0, 1",
			sp.Owner(1, 0), mg.PagesMoved.Value(), mg.Aborted.Value())
	}
	if len(mg.queued) != 0 {
		t.Fatalf("dropped page still marked queued: %v", mg.queued)
	}
}

// A destination with exactly one page of capacity left takes the page.
func TestMigrationFillsTheLastFreePage(t *testing.T) {
	env, sp, mg := twoNodes(2*paging.PageSize, deadNodes{})
	env.Run(sim.Millis(1))
	if sp.Owner(1, 0) != 0 || mg.PagesMoved.Value() != 1 {
		t.Fatalf("page 1 answers node %d, moved %d; want 0, 1", sp.Owner(1, 0), mg.PagesMoved.Value())
	}
}

// The planner moves pages once the busiest live node's epoch faults
// reach Imbalance times the mean, equality included, and passes over the
// spaces that saw no access.
func TestPlanTriggersAtTheImbalanceThreshold(t *testing.T) {
	env := sim.NewEnv(1)
	fab := rdma.NewFabric(env, rdma.DefaultConfig(), 2)
	mn := []*memnode.Node{memnode.New(1 << 24), memnode.New(1 << 24)}
	cluster := memnode.NewCluster(mn, paging.PageSize, memnode.Placement{Nodes: 2, Block: 1, Replicas: 1})
	mgr := paging.NewManager(env, paging.DefaultConfig(16*paging.PageSize))
	// Only the middle space is touched: the planner has no heat for the
	// space before it, nor any slot for the one after it.
	mgr.NewSpace("cold0", cluster.MustAlloc("cold0", 4*paging.PageSize))
	hot := mgr.NewSpace("hot", cluster.MustAlloc("hot", 4*paging.PageSize))
	mgr.NewSpace("cold2", cluster.MustAlloc("cold2", 4*paging.PageSize))
	mgr.Start(paging.Wiring{Fabric: fab})
	mg := New(mgr, cluster, fab, Config{Enabled: true, HotThreshold: 1, Imbalance: 1.5, MinFaults: 1})
	// Three faults on node 1 (pages 1 and 3), one on node 0: max/mean is
	// 3/2, exactly the threshold.
	for _, vpn := range []int64{1, 3, 1, 0} {
		mg.RecordFault(hot, vpn, int(vpn%2), true)
	}
	mg.plan()
	if mg.Planned.Value() != 1 {
		t.Fatalf("planned %d moves at max/mean == Imbalance, want 1", mg.Planned.Value())
	}
}
