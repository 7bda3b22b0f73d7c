package rdma

import (
	"testing"

	"repro/internal/sim"
)

// TestCrashedNodeTimesOutRequests pins the crash window semantics: work
// requests arriving before the crash complete normally, requests
// arriving inside the window complete ErrNodeDead exactly DeadTimeout
// after the post, move no bytes, and leave the QP usable (a remote
// death is not a local QP error), and requests after a rejoin complete
// normally again.
func TestCrashedNodeTimesOutRequests(t *testing.T) {
	env := sim.NewEnv(1)
	nic := testNIC(env)
	nic.ScheduleCrash(sim.Micros(10), sim.Micros(40))
	cq := NewCQ("cq")
	qp := nic.CreateQP("qp0", cq)
	remote := make([]byte, 4096)
	for i := range remote {
		remote[i] = byte(i)
	}
	local := make([]byte, 4096)

	// Before the crash: a normal completion.
	if err := qp.PostRead(local, remote, "pre"); err != nil {
		t.Fatal(err)
	}
	env.Run(sim.Micros(10))
	cs := cq.Poll(4)
	if len(cs) != 1 || cs[0].Err != nil {
		t.Fatalf("pre-crash completion: %+v", cs)
	}

	// Inside the window: ErrNodeDead after DeadTimeout, nothing moved.
	local2 := make([]byte, 4096)
	posted := env.Now()
	if err := qp.PostRead(local2, remote, "dead"); err != nil {
		t.Fatal(err)
	}
	env.Run(sim.Micros(30))
	cs = cq.Poll(4)
	if len(cs) != 1 || cs[0].Err != ErrNodeDead || cs[0].Cookie != "dead" {
		t.Fatalf("in-window completion: %+v", cs)
	}
	if got := cs[0].At - posted; got != nic.cfg.DeadTimeout {
		t.Fatalf("timeout delivered after %v, want DeadTimeout %v", got, nic.cfg.DeadTimeout)
	}
	for i := range local2 {
		if local2[i] != 0 {
			t.Fatal("dead read moved bytes")
		}
	}
	if nic.TimeoutErrors.Value() != 1 {
		t.Fatalf("TimeoutErrors = %d", nic.TimeoutErrors.Value())
	}
	if qp.Errored() {
		t.Fatal("remote death pushed the QP into the error state")
	}
	if qp.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after timeout", qp.Outstanding())
	}

	// After the rejoin: served again.
	env.Run(sim.Micros(45))
	if err := qp.PostRead(local2, remote, "post"); err != nil {
		t.Fatal(err)
	}
	env.Run(sim.Micros(60))
	cs = cq.Poll(4)
	if len(cs) != 1 || cs[0].Err != nil {
		t.Fatalf("post-rejoin completion: %+v", cs)
	}
}

// TestHealthDetectsCrashAndRejoin drives the heartbeat detector over a
// two-node fabric where node 1 dies and later rejoins: the verdict
// flips after Threshold probe periods, OnDown fires exactly once with
// the right node, node 1 rejoins exactly once, and node 0 stays live
// throughout.
func TestHealthDetectsCrashAndRejoin(t *testing.T) {
	env := sim.NewEnv(1)
	fab := NewFabric(env, DefaultConfig(), 2)
	crash, rejoin := sim.Micros(100), sim.Micros(400)
	fab[1].ScheduleCrash(crash, rejoin)
	h := NewHealth(env, fab, DefaultHealthConfig())
	var downs []int
	h.OnDown = func(n int) { downs = append(downs, n) }
	h.Start()

	env.Run(sim.Micros(300))
	if h.Live(1) {
		t.Fatal("node 1 still live 200us after crash")
	}
	if !h.Live(0) {
		t.Fatal("node 0 marked dead")
	}
	// Detection needs Threshold consecutive failed probes: within
	// Threshold+1 periods of the crash, and never before it.
	worst := crash + sim.Time(h.cfg.Threshold+1)*h.cfg.Every
	if at := h.DownAt(1); at < crash || at > worst {
		t.Fatalf("DownAt = %v, want within (%v, %v]", at, crash, worst)
	}
	if len(downs) != 1 || downs[0] != 1 || h.Detected.Value() != 1 {
		t.Fatalf("OnDown fired %v (detected %d)", downs, h.Detected.Value())
	}

	env.Run(sim.Micros(500))
	if !h.Live(1) {
		t.Fatal("node 1 not live after rejoin")
	}
	if h.Rejoins.Value() != 1 {
		t.Fatalf("rejoins %d, want 1", h.Rejoins.Value())
	}
	if h.Probes.Value() == 0 {
		t.Fatal("no probes counted")
	}
}

// TestHealthDataPathStrikes pins the shared strike counter: data-path
// timeout reports alone reach a verdict without any heartbeat, further
// reports on a dead node are no-ops, and out-of-range nodes are live.
func TestHealthDataPathStrikes(t *testing.T) {
	env := sim.NewEnv(1)
	fab := NewFabric(env, DefaultConfig(), 2)
	h := NewHealth(env, fab, DefaultHealthConfig())
	for i := 0; i < 2; i++ {
		h.ReportTimeout(1)
		if !h.Live(1) {
			t.Fatalf("dead after %d strikes, threshold 3", i+1)
		}
	}
	h.ReportTimeout(1)
	if h.Live(1) {
		t.Fatal("live after 3 strikes")
	}
	h.ReportTimeout(1) // no-op on a dead node
	if h.Detected.Value() != 1 {
		t.Fatalf("Detected = %d, want 1", h.Detected.Value())
	}
	if !h.Live(-1) || !h.Live(7) {
		t.Fatal("out-of-range nodes must read as live")
	}
}

// TestHealthProbeResetsStrikes: a successful probe clears accumulated
// data-path strikes, so isolated timeouts never add up to a false
// verdict across probe periods.
func TestHealthProbeResetsStrikes(t *testing.T) {
	env := sim.NewEnv(1)
	fab := NewFabric(env, DefaultConfig(), 1)
	h := NewHealth(env, fab, DefaultHealthConfig())
	h.Start()
	h.ReportTimeout(0)
	h.ReportTimeout(0)
	env.Run(sim.Micros(30)) // one healthy probe period passes
	h.ReportTimeout(0)
	if !h.Live(0) {
		t.Fatal("strikes survived a healthy probe")
	}
}
