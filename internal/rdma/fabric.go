package rdma

import (
	"fmt"

	"repro/internal/sim"
)

// Fabric is the compute node's view of a sharded memory pool: one NIC —
// and therefore one independent link, serialization horizon, and
// congestion state — per memory node. Index k is the fabric to memory
// node k. A one-element fabric is exactly the single-NIC system, and
// every aggregate below degenerates to the plain NIC reading for it.
type Fabric []*NIC

// NewFabric builds n identical NICs bound to env, one per memory node.
func NewFabric(env *sim.Env, cfg Config, n int) Fabric {
	f := make(Fabric, n)
	for i := range f {
		f[i] = NewNIC(env, cfg)
	}
	return f
}

// CreateQPs creates one queue pair per memory node, all delivering
// completions to cq, and returns them indexed by node. On a single-node
// fabric the QP keeps the bare name; on a multi-node fabric names carry
// the node suffix ("w0@n2") so errors and bounds violations are
// attributable to a shard.
func (f Fabric) CreateQPs(name string, cq *CQ) []*QP {
	qps := make([]*QP, len(f))
	for i, nic := range f {
		qn := name
		if len(f) > 1 {
			qn = fmt.Sprintf("%s@n%d", name, i)
		}
		qps[i] = nic.CreateQP(qn, cq)
		qps[i].node = i
	}
	return qps
}

// StartWindow begins the utilization measurement window on every link.
func (f Fabric) StartWindow() {
	for _, nic := range f {
		nic.StartWindow()
	}
}

// InUtilization returns the mean inbound link utilization across the
// fabric's links (identical to the NIC reading for a single node).
func (f Fabric) InUtilization() float64 {
	var t float64
	for _, nic := range f {
		t += nic.InUtilization()
	}
	return t / float64(len(f))
}

// OutUtilization returns the mean outbound link utilization.
func (f Fabric) OutUtilization() float64 {
	var t float64
	for _, nic := range f {
		t += nic.OutUtilization()
	}
	return t / float64(len(f))
}

// CompletionErrors sums injected and flushed error completions across
// the fabric.
func (f Fabric) CompletionErrors() int64 {
	var t int64
	for _, nic := range f {
		t += nic.CompletionErrors.Value()
	}
	return t
}

// Reads sums posted READ work requests across the fabric.
func (f Fabric) Reads() int64 {
	var t int64
	for _, nic := range f {
		t += nic.Reads.Value()
	}
	return t
}

// Writes sums posted WRITE work requests across the fabric.
func (f Fabric) Writes() int64 {
	var t int64
	for _, nic := range f {
		t += nic.Writes.Value()
	}
	return t
}
