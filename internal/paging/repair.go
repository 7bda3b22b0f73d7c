package paging

import (
	"repro/internal/rdma"
	"repro/internal/stats"
)

// repairBandwidth is the calibrated cap on background re-replication
// traffic in bytes per cycle: ~1/9 of the link's effective data rate, so
// repair cannot starve foreground fetches of link time.
const repairBandwidth = 0.5

// Repairer restores the replication factor after a node death. It is a
// planner over the re-home engine (rehome.go): when the failure
// detector reports a node down it scans every space for pages whose
// owner set includes the dead node and queues one job per lost copy, in
// deterministic (space, page, slot) order. When the engine asks for the
// next job it picks the endpoints — the first live owner as the source,
// the first live non-owner as the new home — skipping copies that need
// no repair any more and counting those that cannot get one. It lands a
// durable copy at once while the slot it re-points still answers a dead
// node, so no reader can straddle the change, drops it once the owner is
// back, and re-plans a job after any error, the death of an endpoint
// included.
type Repairer struct {
	*Rehomer

	jobs []RehomeJob
	ji   int

	// Repaired counts restored copies; Unrepairable counts lost copies
	// with no live source or no eligible new home (the whole queue, when
	// replicas=1).
	Repaired     stats.Counter
	Unrepairable stats.Counter

	// RepairLat records, per restored copy, the time from the node-down
	// verdict that queued it to the copy being durable at its new home.
	RepairLat *stats.Histogram
}

// NewRepairer builds the repairer and its engine over per-node QPs
// created for it (all completing on cq, which must be dedicated to it).
func NewRepairer(m *Manager, qps []*rdma.QP, cq *rdma.CQ) *Repairer {
	r := &Repairer{RepairLat: stats.NewHistogram()}
	r.Rehomer = NewRehomer(m, "repair", qps, cq, repairBandwidth, r)
	return r
}

// NodeDown is the failure detector's OnDown hook: enqueue a repair job
// for every copy the dead node held, in deterministic scan order, and
// start the engine if it was idle.
func (r *Repairer) NodeDown(dead int) {
	now := r.m.env.Now()
	for _, s := range r.m.spaces {
		reps := s.region.Replicas()
		for vpn := int64(0); vpn < s.Pages(); vpn++ {
			for k := 0; k < reps; k++ {
				if s.Owner(vpn, k) == dead {
					r.jobs = append(r.jobs, RehomeJob{Space: s, VPN: vpn, Slot: k, Planned: now})
				}
			}
		}
	}
	r.Kick()
}

// Pending returns the number of queued-but-unfinished jobs.
func (r *Repairer) Pending() int { return len(r.jobs) - r.ji }

// Next advances past stale and unrepairable jobs and plans the first
// one left.
func (r *Repairer) Next() (RehomeJob, bool) {
	for ; r.ji < len(r.jobs); r.ji++ {
		j := &r.jobs[r.ji]
		if r.m.NodeLive(j.Space.Owner(j.VPN, j.Slot)) {
			// The owner came back (rejoin) or an earlier wave already
			// re-homed this slot: nothing to restore.
			continue
		}
		if j.Src, j.Dst = r.plan(*j); j.Src < 0 {
			r.Unrepairable.Inc()
			continue
		}
		return *j, true
	}
	r.jobs, r.ji = r.jobs[:0], 0
	return RehomeJob{}, false
}

// plan picks the source (first live holder of another copy) and the new
// home (first live node holding no other copy) for a job, or -1, -1 when
// either is missing. Both choices are pure functions of the owner table
// and the health verdicts, so identically seeded runs repair identically.
func (r *Repairer) plan(j RehomeJob) (src, dst int) {
	reg := j.Space.region
	src = -1
	var holders uint64
	for k := 0; k < reg.Replicas(); k++ {
		if k == j.Slot {
			continue
		}
		o := j.Space.Owner(j.VPN, k)
		holders |= 1 << uint(o)
		if src < 0 && r.m.NodeLive(o) {
			src = o
		}
	}
	for n := 0; src >= 0 && n < reg.Nodes(); n++ {
		if r.m.NodeLive(n) && holders&(1<<uint(n)) == 0 {
			return src, n
		}
	}
	return -1, -1
}

// Ready drops the job when the slot's owner came back while the copy was
// in flight: landing would retire a live node's copy with no quiescence,
// so the job gets the answer Next gives before a copy starts. It waits
// while another engine (migration) copies the same page to the same
// node, whose landing would put two slots on one node; the migrator,
// which yields a page to repair, drops its copy at its own Ready.
// Otherwise the durable copy lands at once.
func (r *Repairer) Ready(j RehomeJob) Landing {
	if r.m.NodeLive(j.Space.Owner(j.VPN, j.Slot)) {
		r.ji++
		return LandNever
	}
	if r.Rivals(j.Space, j.VPN)&(1<<uint(j.Dst)) != 0 {
		return LandLater
	}
	return Land
}

// Keep re-plans the job after any error: the endpoint that failed may
// itself have died, and the next plan routes around it.
func (r *Repairer) Keep(RehomeJob, error) bool { return true }

// Landed books the restored copy.
func (r *Repairer) Landed(j RehomeJob) {
	now := r.m.env.Now()
	r.Repaired.Inc()
	r.RepairLat.Record(int64(now - j.Planned))
	r.Fold(uint64(j.Space.id), uint64(j.VPN), uint64(j.Slot), uint64(j.Dst), uint64(now))
	r.ji++
}
