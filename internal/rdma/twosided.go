package rdma

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// ServerConfig enables two-sided (SEND/RECV-style) serving: instead of
// the NIC satisfying READ/WRITE autonomously, each operation is handled
// by a memory-node server core — request dispatch, lookup, and memcpy
// consume remote CPU before the response is generated.
//
// The paper's systems use one-sided verbs precisely to avoid this stage
// (§3.1); the abl-twosided ablation quantifies what that choice buys:
// added per-fetch latency and a fetch-rate ceiling of
// Cores/(ServeCost + bytes×CopyCyclesPerByte).
type ServerConfig struct {
	// Cores is the number of memory-node cores polling receive queues.
	Cores int
	// ServeCost is the fixed per-request CPU cost (RQ poll, dispatch,
	// translation, response post).
	ServeCost sim.Time
	// CopyCyclesPerByte is the server-side memcpy cost.
	CopyCyclesPerByte float64
}

// DefaultServerConfig returns a two-core memory-node server, the typical
// provisioning of RPC-based far-memory systems.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		Cores:             2,
		ServeCost:         sim.Micros(0.45),
		CopyCyclesPerByte: 0.06, // ~33 GB/s single-core copy at 2 GHz
	}
}

// Server tracks the memory node's serving cores; Served counts the
// operations they handled.
type Server struct {
	cfg    ServerConfig
	freeAt []sim.Time

	Served stats.Counter
}

// EnableTwoSided switches the NIC's remote operations to two-sided
// serving with the given server provisioning and returns the server, for
// the caller to register its counter beside the NIC's. Must be called
// before any operation is posted.
func (n *NIC) EnableTwoSided(cfg ServerConfig) *Server {
	if cfg.Cores < 1 {
		panic("rdma: two-sided server needs at least one core")
	}
	n.srv = &Server{cfg: cfg, freeAt: make([]sim.Time, cfg.Cores)}
	return n.srv
}

// serve returns when the response to an operation arriving at the
// memory node at time arrive is ready to leave it. The operation first
// waits out a memory-node stall (Interceptor.ServeDelay), then the
// server stage runs; with two-sided serving disabled the NIC answers at
// once, so only the stall counts.
func (n *NIC) serve(arrive sim.Time, bytes int) sim.Time {
	if n.itc != nil {
		arrive += n.itc.ServeDelay(arrive)
	}
	if n.srv == nil {
		return arrive
	}
	s := n.srv
	// Pick the earliest-free core (a shared RQ drained by all cores).
	core := 0
	for i := 1; i < len(s.freeAt); i++ {
		if s.freeAt[i] < s.freeAt[core] {
			core = i
		}
	}
	start := arrive
	if s.freeAt[core] > start {
		start = s.freeAt[core]
	}
	done := start + s.cfg.ServeCost + sim.Time(float64(bytes)*s.cfg.CopyCyclesPerByte)
	s.freeAt[core] = done
	s.Served.Inc()
	return done
}
