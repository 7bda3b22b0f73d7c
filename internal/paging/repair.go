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
// owner set includes the dead node and queues one job per lost copy on
// its engine, in deterministic (space, page, slot) order. When the
// engine plans a job it picks the endpoints — the first live owner as
// the source, the first live non-owner as the new home — refusing
// copies that need no repair any more and counting those that cannot
// get one. It lands a durable copy at once while the slot it re-points
// still answers a dead node, so no reader can straddle the change, drops
// it once the owner is back, and re-plans a job after any error, the
// death of an endpoint included.
type Repairer struct {
	*Rehomer

	// Repaired counts restored copies; Unrepairable counts lost copies
	// with no live source or no eligible new home (the whole queue, when
	// replicas=1).
	Repaired     stats.Counter
	Unrepairable stats.Counter

	// RepairLat records, per restored copy, the time from the node-down
	// verdict that queued it to the copy being durable at its new home.
	RepairLat *stats.Histogram
}

// NewRepairer builds the repairer and its engine, on QPs of its own
// over fab.
func NewRepairer(m *Manager, fab rdma.Fabric) *Repairer {
	r := &Repairer{RepairLat: stats.NewHistogram()}
	r.Rehomer = NewRehomer(m, "repair", fab, repairBandwidth, r)
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
					r.Queue(RehomeJob{Space: s, VPN: vpn, Slot: k, Planned: now})
				}
			}
		}
	}
	r.Kick()
}

// Plan refuses a job whose slot answers a live node — the owner came
// back (rejoin) or an earlier wave already re-homed it: nothing to
// restore. Otherwise it picks the source (first live holder of another
// copy) and the new home (first live node holding no other copy), and
// counts the job Unrepairable when either is missing. Both choices are
// pure functions of the owner table and the health verdicts, so
// identically seeded runs repair identically.
func (r *Repairer) Plan(j *RehomeJob) bool {
	if r.m.NodeLive(j.Space.Owner(j.VPN, j.Slot)) {
		return false
	}
	reg := j.Space.region
	j.Src = -1
	var holders uint64
	for k := 0; k < reg.Replicas(); k++ {
		if k == j.Slot {
			continue
		}
		o := j.Space.Owner(j.VPN, k)
		holders |= 1 << uint(o)
		if j.Src < 0 && r.m.NodeLive(o) {
			j.Src = o
		}
	}
	for n := 0; j.Src >= 0 && n < reg.Nodes(); n++ {
		if r.m.NodeLive(n) && holders&(1<<uint(n)) == 0 {
			j.Dst = n
			return true
		}
	}
	r.Unrepairable.Inc()
	return false
}

// Ready drops the job when the slot's owner came back while the copy was
// in flight: landing would retire a live node's copy with no quiescence,
// so the job gets the answer Plan gives before a copy starts. It waits
// while another engine (migration) copies the same page to the same
// node, whose landing would put two slots on one node; the migrator,
// which yields a page to repair, drops its copy at its own Ready.
// Otherwise the durable copy lands at once.
func (r *Repairer) Ready(j RehomeJob) Landing {
	if r.m.NodeLive(j.Space.Owner(j.VPN, j.Slot)) {
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
}
