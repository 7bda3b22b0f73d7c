package migrate

import (
	"testing"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
)

// TestPickDstOrder states the destination rule as a table. Page 0 of a
// space striped over five nodes with two copies lives on nodes 0 and 1,
// and every node has exactly one free page. Among the live nodes that
// hold no copy and keep a free page net of this round's reservations,
// the lowest projected load wins and ties go to the lowest index; when
// none qualifies the answer is -1.
func TestPickDstOrder(t *testing.T) {
	const nodes = 5
	dead := deadNodes{}
	env := sim.NewEnv(1)
	fab := rdma.NewFabric(env, rdma.DefaultConfig(), nodes)
	mn := make([]*memnode.Node, nodes)
	for i := range mn {
		mn[i] = memnode.New(3 * paging.PageSize)
	}
	cluster := memnode.NewCluster(mn, paging.PageSize, memnode.Placement{Nodes: nodes, Block: 1, Replicas: 2})
	mgr := paging.NewManager(env, paging.DefaultConfig(16*paging.PageSize))
	sp := mgr.NewSpace("data", cluster.MustAlloc("data", nodes*paging.PageSize))
	mgr.Start(paging.Wiring{Fabric: fab, Health: dead})
	mg := New(mgr, cluster, fab, Config{Enabled: true})
	for n := range nodes {
		if free := cluster.FreeCapacity(n); free != paging.PageSize {
			t.Fatalf("node %d has %d bytes free, want one page", n, free)
		}
	}
	const page = paging.PageSize
	for _, tc := range []struct {
		rule     string
		dead     []int
		proj     []int64
		reserved []int64
		want     int
	}{
		{"lowest projected load wins", nil, []int64{9, 9, 5, 3, 4}, nil, 3},
		{"a tie goes to the lowest index", nil, []int64{0, 0, 4, 4, 4}, nil, 2},
		{"a dead node is skipped", []int{3}, []int64{0, 0, 5, 3, 4}, nil, 4},
		{"a node holding a copy is skipped", nil, []int64{0, 1, 5, 3, 4}, nil, 3},
		{"the last free page qualifies", nil, []int64{0, 0, 5, 3, 4}, []int64{0, 0, 0, 0, 0}, 3},
		{"a reserved free page does not", nil, []int64{0, 0, 5, 3, 4}, []int64{0, 0, 0, page, 0}, 4},
		{"no node qualifies", []int{2}, []int64{0, 0, 5, 3, 4}, []int64{0, 0, 0, page, page}, -1},
	} {
		clear(dead)
		for _, n := range tc.dead {
			dead[n] = true
		}
		reserved := tc.reserved
		if reserved == nil {
			reserved = make([]int64, nodes)
		}
		if got := mg.pickDst(candidate{s: sp, vpn: 0}, tc.proj, reserved); got != tc.want {
			t.Errorf("%s: pickDst = %d, want %d (dead %v, proj %v, reserved %v)",
				tc.rule, got, tc.want, tc.dead, tc.proj, reserved)
		}
	}
}

// TestHeatWeights states the heat rule: a demand fault adds 8 to the
// page's heat, an async fill and a resident touch add 1 each, and the
// counter saturates at 0xffff.
func TestHeatWeights(t *testing.T) {
	_, sp, mg := twoNodes(1<<24, deadNodes{})
	h := mg.heat(sp)
	for _, step := range []struct {
		rule   string
		record func()
		want   uint16
	}{
		{"a demand fault adds 8", func() { mg.RecordFault(sp, 0, 0, true) }, 8},
		{"an async fill adds 1", func() { mg.RecordFault(sp, 0, 0, false) }, 9},
		{"a touch adds 1", func() { mg.RecordTouch(sp, 0) }, 10},
		{"a fault reaching 0xffff lands on it", func() { h[0] = 0xffff - 8; mg.RecordFault(sp, 0, 0, true) }, 0xffff},
		{"past 0xffff the count saturates", func() { h[0] = 0xffff - 3; mg.RecordFault(sp, 0, 0, true) }, 0xffff},
		{"a saturated count stays", func() { mg.RecordTouch(sp, 0) }, 0xffff},
	} {
		step.record()
		if h[0] != step.want {
			t.Fatalf("%s: heat %#x, want %#x", step.rule, h[0], step.want)
		}
	}
	if h[1] != 0 {
		t.Fatalf("page 1 heat %d, want 0: a record heats its own page only", h[1])
	}
}
