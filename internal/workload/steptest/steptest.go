// Package steptest is the unit tests' side of the step contract: a
// harness thread — one task, outside any scheduler — drives queued
// workload.StepHandler requests to StepDone the way a worker core does,
// and a run is checked against the rows a package pins in testdata.
package steptest

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Rig is the paging harness the threads share: a queue pair whose fetch
// completions apply as they arrive, and the manager's reclaimer.
type Rig struct {
	mgr *paging.Manager
	qp  *rdma.QP
}

// NewRig wires mgr to a NIC of its own and starts its reclaimer.
func NewRig(mgr *paging.Manager) *Rig {
	nic := rdma.NewNIC(mgr.Env(), rdma.DefaultConfig())
	cq := rdma.NewCQ("t")
	cq.Notify = func() {
		for _, c := range cq.Poll(64) {
			mgr.Complete(c.Cookie.(*paging.Fetch), c.Err)
		}
	}
	rcq := rdma.NewCQ("reclaim")
	mgr.StartReclaimer(nic.CreateQP("reclaim", rcq), rcq)
	return &Rig{mgr: mgr, qp: nic.CreateQP("t", cq)}
}

// Thread returns a new harness thread, whose task first fires at the
// current simulated time.
func (r *Rig) Thread() *Thread {
	env := r.mgr.Env()
	t := &Thread{Rig: r, gate: sim.NewGate(env)}
	t.task = sim.NewTask(env, "thread", func() {
		for len(t.queue) > 0 && t.queue[0]() {
			t.queue = t.queue[1:]
		}
	})
	t.task.FireAt(env.Now())
	return t
}

// Thread is a harness thread and the workload.StepCtx its requests see:
// a task that runs its queue of jobs in order. Compute takes the task's
// time, a probe is free, nothing preempts; a fault waits as a worker
// core's does (TryRequestPage with a FaultCall carried across stalls,
// then the gate), a Block on the gate. Jobs are queued before the run or
// by a job of the same thread.
type Thread struct {
	*Rig
	task  *sim.Task
	gate  *sim.Gate
	queue []func() bool

	wait    workload.StepStatus // StepFault or StepBlock while the request waits
	call    paging.FaultCall
	stalled bool          // call is mid-way: repeat it
	sp      *paging.Space // the page of the fault in progress
	vpn     int64
	retry   bool // the next access to sp/vpn is that fault's re-probe
	woken   bool
}

// Run queues a request: h is driven over payload from Begin to StepDone,
// then done, if set, gets the response.
func (t *Thread) Run(h workload.StepHandler, payload any, done func(resp any, n int)) {
	var f workload.StepFrame
	begun := false
	t.queue = append(t.queue, func() bool {
		if !begun {
			begun = true
			h.Begin(&f, payload)
		}
		for t.waited() {
			switch resp, n, cycles, st := h.Step(t, &f, payload); st {
			case workload.StepDone:
				if done != nil {
					done(resp, n)
				}
				return true
			case workload.StepCompute:
				if !t.task.Sleep(cycles) {
					return false
				}
			case workload.StepFault, workload.StepBlock:
				t.wait = st
			}
		}
		return false
	})
}

// Do queues fn, to run between the jobs queued before and after it.
func (t *Thread) Do(fn func()) { t.queue = append(t.queue, func() bool { fn(); return true }) }

// waited carries the request's wait as far as it goes, and reports false
// while the task must wait for a firing.
func (t *Thread) waited() bool {
	switch t.wait {
	case workload.StepFault:
		for t.stalled || !t.sp.Resident(t.vpn) {
			st := t.mgr.TryRequestPage(&t.call, t.task, t, t.sp, t.vpn, t.wake, true)
			if t.stalled = st == paging.PageStalled; t.stalled || st == paging.PagePending && !t.gate.Arm(t.task) {
				return false
			}
		}
		t.retry = true
	case workload.StepBlock:
		for !t.woken {
			if !t.gate.Arm(t.task) {
				return false
			}
		}
	}
	t.wait = workload.StepDone // nothing to wait for
	return true
}

// wake is a fetch's onReady: the page's state changed.
func (t *Thread) wake(error) { t.gate.Wake() }

// The rest of workload.StepCtx.
func (t *Thread) QP(int) *rdma.QP                  { return t.qp }
func (t *Thread) Rand() *sim.RNG                   { return t.mgr.Env().Rand() }
func (t *Thread) CriticalEnter()                   {}
func (t *Thread) CriticalExit()                    {}
func (t *Thread) ProbeFree() bool                  { return true }
func (t *Thread) Fault(s *paging.Space, vpn int64) { t.sp, t.vpn = s, vpn }

func (t *Thread) TryPage(s *paging.Space, vpn int64) ([]byte, bool) {
	retry := t.retry && t.sp == s && t.vpn == vpn
	t.retry = false
	page, ok := s.TryPage(vpn, retry)
	if !ok {
		t.Fault(s, vpn)
	}
	return page, ok
}

func (t *Thread) Block(enqueue func(wake func())) {
	t.woken = false
	enqueue(func() { t.woken = true; t.gate.Wake() })
}

// TraceSum is the SHA-256 of a run's trace events, in order.
func TraceSum(events []trace.Event) string {
	h := sha256.New()
	for _, e := range events {
		fmt.Fprintf(h, "%+v\n", e)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Pinned fails t unless row is what testdata/stepper_digests.txt records
// for name, on the line "name row".
func Pinned(t testing.TB, name, row string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "stepper_digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, _ := strings.Cut(line, " "); k == name {
			if v != row {
				t.Fatalf("%s: the run differs from its pinned row\n run    %s\n pinned %s", name, row, v)
			}
			return
		}
	}
	t.Fatalf("%s: no pinned row; the run reads\n%s %s", name, name, row)
}
