// Package steptest is the unit tests' side of the step contract: it
// drives a workload.StepHandler to StepDone on a harness thread — a
// process of its own, outside any scheduler — and checks a run against
// the rows a package pins in testdata.
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

// Go runs fn on a new thread, from the current simulated time.
func (r *Rig) Go(fn func(t *Thread)) {
	env := r.mgr.Env()
	env.Go("driver", func(p *sim.Proc) { fn(&Thread{Rig: r, proc: p, gate: sim.NewGate(env)}) })
}

// Thread is a harness thread and the workload.StepCtx its requests see:
// compute takes its process's time, a probe is free, nothing preempts.
type Thread struct {
	*Rig
	proc  *sim.Proc
	gate  *sim.Gate
	sp    *paging.Space // the page of the fault in progress
	vpn   int64
	retry bool // the next access to sp/vpn is that fault's re-probe
	woken bool
}

// Run drives h over payload from Begin to StepDone and returns the
// response. A compute step sleeps, a fault waits until its page is
// resident, a Block waits for its wake.
func (t *Thread) Run(h workload.StepHandler, payload any) (any, int) {
	var f workload.StepFrame
	h.Begin(&f, payload)
	for {
		switch resp, n, cycles, st := h.Step(t, &f, payload); st {
		case workload.StepDone:
			return resp, n
		case workload.StepCompute:
			t.proc.Sleep(cycles)
		case workload.StepFault:
			for !t.sp.Resident(t.vpn) && !t.mgr.RequestPage(t, t.sp, t.vpn, func(error) { t.gate.Wake() }, true) {
				t.gate.Wait(t.proc)
			}
			t.retry = true
		case workload.StepBlock:
			for !t.woken {
				t.gate.Wait(t.proc)
			}
		}
	}
}

// The rest of workload.StepCtx, and the Proc RequestPage parks.
func (t *Thread) Proc() *sim.Proc                  { return t.proc }
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
