package rdma

import (
	"testing"

	"repro/internal/sim"
)

func testNIC(env *sim.Env) *NIC {
	return NewNIC(env, DefaultConfig())
}

func TestReadMovesBytesAndCompletes(t *testing.T) {
	env := sim.NewEnv(1)
	nic := testNIC(env)
	cq := NewCQ("cq")
	qp := nic.CreateQP("qp0", cq)

	remote := make([]byte, 4096)
	for i := range remote {
		remote[i] = byte(i)
	}
	local := make([]byte, 4096)

	if err := qp.PostRead(local, remote, "cookie"); err != nil {
		t.Fatal(err)
	}
	if qp.Outstanding() != 1 {
		t.Fatalf("outstanding = %d, want 1", qp.Outstanding())
	}
	env.RunAll()

	cs := cq.Poll(16)
	if len(cs) != 1 {
		t.Fatalf("completions = %d, want 1", len(cs))
	}
	c := cs[0]
	if c.Kind != OpRead || c.Bytes != 4096 || c.Cookie != "cookie" || c.QP != qp {
		t.Fatalf("bad completion: %+v", c)
	}
	if qp.Outstanding() != 0 {
		t.Fatalf("outstanding after completion = %d", qp.Outstanding())
	}
	for i := range local {
		if local[i] != byte(i) {
			t.Fatalf("byte %d = %d, want %d", i, local[i], byte(i))
		}
	}
	// Unloaded 4 KiB read should land in the paper's 2–3 µs envelope.
	lat := c.At.Micros()
	if lat < 2.0 || lat > 3.0 {
		t.Fatalf("unloaded 4KiB read latency = %.2fus, want 2-3us", lat)
	}
}

func TestWriteMovesBytesToRemote(t *testing.T) {
	env := sim.NewEnv(1)
	nic := testNIC(env)
	cq := NewCQ("cq")
	qp := nic.CreateQP("qp0", cq)

	remote := make([]byte, 4096)
	local := make([]byte, 4096)
	for i := range local {
		local[i] = byte(i * 3)
	}
	if err := qp.PostWrite(remote, local, nil); err != nil {
		t.Fatal(err)
	}
	env.RunAll()
	if cq.Len() != 1 {
		t.Fatalf("cq len = %d", cq.Len())
	}
	for i := range remote {
		if remote[i] != byte(i*3) {
			t.Fatalf("remote byte %d not written", i)
		}
	}
	if nic.Writes.Value() != 1 || nic.WriteBytes.Value() != 4096 {
		t.Fatal("write counters wrong")
	}
}

func TestLengthMismatchRejected(t *testing.T) {
	env := sim.NewEnv(1)
	qp := testNIC(env).CreateQP("qp", NewCQ("cq"))
	if err := qp.PostRead(make([]byte, 8), make([]byte, 16), nil); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if err := qp.PostWrite(make([]byte, 8), make([]byte, 16), nil); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestPerQPOrdering(t *testing.T) {
	// Completions on one QP must arrive in post order even for different
	// sizes (RC QPs execute WQEs in order).
	env := sim.NewEnv(1)
	nic := testNIC(env)
	cq := NewCQ("cq")
	qp := nic.CreateQP("qp0", cq)
	remote := make([]byte, 1<<20)

	var order []int
	cq.Notify = func() {
		for _, c := range cq.Poll(64) {
			order = append(order, c.Cookie.(int))
		}
	}
	// Post a large read first, then small ones; small must not overtake.
	if err := qp.PostRead(make([]byte, 256*1024), remote[:256*1024], 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := qp.PostRead(make([]byte, 64), remote[:64], i); err != nil {
			t.Fatal(err)
		}
	}
	env.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order = %v, want post order", order)
		}
	}
}

func TestQPDepthEnforced(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	cfg.QPDepth = 4
	nic := NewNIC(env, cfg)
	qp := nic.CreateQP("qp", NewCQ("cq"))
	remote := make([]byte, 4096)
	for i := 0; i < 4; i++ {
		if err := qp.PostRead(make([]byte, 4096), remote, i); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	if err := qp.PostRead(make([]byte, 4096), remote, 99); err != ErrQPFull {
		t.Fatalf("expected ErrQPFull, got %v", err)
	}
	env.RunAll()
	if err := qp.PostRead(make([]byte, 4096), remote, 100); err != nil {
		t.Fatalf("post after drain: %v", err)
	}
}

func TestWaitSlotUnblocksOnCompletion(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	cfg.QPDepth = 1
	nic := NewNIC(env, cfg)
	qp := nic.CreateQP("qp", NewCQ("cq"))
	remote := make([]byte, 4096)

	var unblockedAt sim.Time
	posted := false
	var waiter *sim.Task
	waiter = sim.NewTask(env, "waiter", func() {
		if !posted {
			posted = true
			if err := qp.PostRead(make([]byte, 4096), remote, nil); err != nil {
				t.Error(err)
			}
			qp.AddSlotWaiter(waiter)
			return
		}
		unblockedAt = env.Now()
		if qp.Full() {
			t.Error("QP still full when its slot waiter fired")
		}
	})
	waiter.FireAt(env.Now())
	env.RunAll()
	if unblockedAt == 0 {
		t.Fatal("waiter never unblocked")
	}
}

func TestParallelQPsShareLink(t *testing.T) {
	// Two QPs issuing simultaneously serialize on the shared inbound
	// link: the second transfer must finish roughly one transfer-time
	// after the first, not at the same time.
	env := sim.NewEnv(1)
	nic := testNIC(env)
	cqA, cqB := NewCQ("a"), NewCQ("b")
	qpA := nic.CreateQP("qpA", cqA)
	qpB := nic.CreateQP("qpB", cqB)
	remote := make([]byte, 4096)

	var doneA, doneB sim.Time
	cqA.Notify = func() { doneA = cqA.Poll(1)[0].At }
	cqB.Notify = func() { doneB = cqB.Poll(1)[0].At }
	if err := qpA.PostRead(make([]byte, 4096), remote, nil); err != nil {
		t.Fatal(err)
	}
	if err := qpB.PostRead(make([]byte, 4096), remote, nil); err != nil {
		t.Fatal(err)
	}
	env.RunAll()

	cfg := nic.cfg
	xfer := sim.Time(float64(4096+cfg.WireOverhead) * cfg.CyclesPerByte)
	gap := doneB - doneA
	if gap != xfer {
		t.Fatalf("completion gap = %v, want one transfer time %v", gap, xfer)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	env := sim.NewEnv(1)
	nic := testNIC(env)
	cq := NewCQ("cq")
	qp := nic.CreateQP("qp", cq)
	remote := make([]byte, 4096)

	nic.StartWindow()
	// Saturate the link with back-to-back reads from a task that keeps
	// the QP full.
	i := 0
	var poster *sim.Task
	poster = sim.NewTask(env, "poster", func() {
		for ; i < 200; i++ {
			if qp.Full() || qp.Errored() {
				qp.AddSlotWaiter(poster)
				return
			}
			if err := qp.PostRead(make([]byte, 4096), remote, nil); err != nil {
				t.Error(err)
			}
		}
	})
	poster.FireAt(env.Now())
	env.RunAll()
	u := nic.InUtilization()
	if u < 0.90 || u > 1.0 {
		t.Fatalf("saturated utilization = %.2f, want ~1", u)
	}
	if nic.Reads.Value() != 200 || nic.ReadBytes.Value() != 200*4096 {
		t.Fatal("read counters wrong")
	}
	if nic.OutUtilization() != 0 {
		t.Fatal("outbound utilization should be zero for reads")
	}
}

func TestCQNotifyAndPollBatching(t *testing.T) {
	env := sim.NewEnv(1)
	nic := testNIC(env)
	cq := NewCQ("cq")
	qp := nic.CreateQP("qp", cq)
	remote := make([]byte, 64)
	notified := 0
	cq.Notify = func() { notified++ }
	for i := 0; i < 10; i++ {
		if err := qp.PostRead(make([]byte, 64), remote, i); err != nil {
			t.Fatal(err)
		}
	}
	env.RunAll()
	if notified != 10 {
		t.Fatalf("notified = %d, want 10", notified)
	}
	if got := len(cq.Poll(3)); got != 3 {
		t.Fatalf("poll(3) = %d", got)
	}
	if got := len(cq.Poll(100)); got != 7 {
		t.Fatalf("poll(100) = %d", got)
	}
	if cq.Poll(1) != nil {
		t.Fatal("expected empty poll")
	}
}

func TestTwoSidedAddsServerStage(t *testing.T) {
	// One-sided vs two-sided unloaded latency: the server stage must add
	// its serve cost; under a burst, the two server cores must serialize.
	oneSided := func() sim.Time {
		env := sim.NewEnv(1)
		nic := testNIC(env)
		cq := NewCQ("cq")
		qp := nic.CreateQP("qp", cq)
		var done sim.Time
		cq.Notify = func() { done = cq.Poll(1)[0].At }
		if err := qp.PostRead(make([]byte, 4096), make([]byte, 4096), nil); err != nil {
			t.Fatal(err)
		}
		env.RunAll()
		return done
	}()

	env := sim.NewEnv(1)
	nic := testNIC(env)
	srv := DefaultServerConfig()
	nic.EnableTwoSided(srv)
	if nic.srv == nil {
		t.Fatal("two-sided not enabled")
	}
	cq := NewCQ("cq")
	qp := nic.CreateQP("qp", cq)
	var first sim.Time
	var all []sim.Time
	cq.Notify = func() {
		for _, c := range cq.Poll(16) {
			if first == 0 {
				first = c.At
			}
			all = append(all, c.At)
		}
	}
	const burst = 8
	for i := 0; i < burst; i++ {
		if err := qp.PostRead(make([]byte, 4096), make([]byte, 4096), i); err != nil {
			t.Fatal(err)
		}
	}
	env.RunAll()

	if first <= oneSided {
		t.Fatalf("two-sided first completion %v not above one-sided %v", first, oneSided)
	}
	if nic.srv.Served.Value() != burst {
		t.Fatalf("served = %d", nic.srv.Served.Value())
	}
	// With 2 cores and per-op serve cost, the burst must stretch out by
	// roughly burst/cores * serveCost beyond a single op.
	perOp := srv.ServeCost + sim.Time(float64(4096)*srv.CopyCyclesPerByte)
	minSpread := sim.Time(burst/srv.Cores-1) * perOp
	if spread := all[len(all)-1] - all[0]; spread < minSpread {
		t.Fatalf("burst spread %v < server-bound minimum %v", spread, minSpread)
	}
}
