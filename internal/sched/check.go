package sched

import "repro/internal/simcheck"

// This file holds the scheduler's end-of-run oracle (see package
// simcheck). It is observational: it reads state, never changes it.
//
//	sched/core-liveness  every worker and dispatcher core can still be
//	                     woken — its task is armed, or it sits in a waiter
//	                     slot something will signal — and every runnable
//	                     request off its core is where a core will find it
//
// sched/flat-state lives beside the transitions it checks
// (Request.advance, flat.go).

// pointNames name the continuation points of worker.go and flat.go, for
// violation reports.
var pointNames = [...]string{
	wLoop: "loop", wPolled: "polled", wPick: "pick", wSteal: "steal",
	wProbed: "probed", wStolen: "stolen", wWoken: "idle",
	flatOpen: "open", flatResume: "resume", flatBegin: "begin", flatPrologue: "prologue",
	flatJitter: "jitter", flatStep: "step", flatSlice: "slice", flatIPI: "ipi",
	flatProbed: "probed", flatRequeue: "requeue", flatBlock: "block",
	flatBlockSpin: "block-spin", flatBlockSpun: "block-spun",
	flatFaultOpen: "fault-open", flatFault: "fault", flatRequest: "request",
	flatSpin: "fault-spin", flatFaultDone: "fault-done", flatMapped: "mapped",
	flatTxPosted: "tx-posted", flatSend: "send", flatTxWait: "tx-wait",
	flatFinish: "finish", flatClose: "close", flatClosed: "closed",
}

var dispatcherPointNames = [...]string{
	dPoll: "idle", dAdmit: "admit", dReap: "reap", dRecycle: "recycle",
	dAssign: "assign", dDeliver: "deliver",
}

// CheckLiveness is the sched/core-liveness oracle. The cores are tasks,
// so the kernel's lost-wakeup audit (which walks parked processes) cannot
// see one that wedged. Between events a live core is either armed on the
// wheel or registered where a wake will find it: its idle gate, the CQ,
// block or TX gate a busy-waiting request holds it on, a QP's slot
// waiters, the frame pool. A core that is neither will never run again;
// neither will a worker waiting on its idle gate with work queued, whose
// wake was lost, nor a request that was woken or preempted and is on no
// ring or queue a core takes work from. Call after Start, between events
// (core.System.Audit does, after Run).
func (s *Scheduler) CheckLiveness() error {
	for _, d := range s.dispatchers {
		if !d.task.Armed() && !d.gate.Waiting() {
			return simcheck.New("sched/core-liveness",
				"dispatcher core is neither armed nor waiting on its gate").
				With("core", d.task.Name()).With("state", dispatcherPointNames[d.pc])
		}
	}
	for _, w := range s.workers {
		if err := w.checkLive(); err != nil {
			return err
		}
	}
	return s.checkRunnable()
}

func (w *Worker) checkLive() error {
	switch {
	case w.task.Armed(), w.cqGate.Waiting(), w.blockGate.Waiting(), w.txGate.Waiting(),
		w.sched.mgr.FrameWaiting(w.task):
		return nil
	case w.idleGate.Waiting():
		if w.inbox.Len() == 0 && w.ready.Len() == 0 {
			return nil
		}
		return simcheck.New("sched/core-liveness",
			"worker core waits on its idle gate with runnable work: lost wake").
			With("core", w.task.Name()).With("state", pointNames[w.pc]).
			With("inbox", w.inbox.Len()).With("ready", w.ready.Len())
	}
	for _, qp := range w.qps {
		if qp.SlotWaiting(w.task) {
			return nil
		}
	}
	return simcheck.New("sched/core-liveness",
		"worker core is neither armed nor in any waiter slot").
		With("core", w.task.Name()).With("state", pointNames[w.pc])
}

// checkRunnable accounts for every request that is off its core without
// waiting for anything: one woken after a yield is on its worker's ready
// ring, a preempted one in the central queue, a worker's inbox, or the
// hands of the dispatcher or thief moving it — and nothing else that has
// run is in those places. A request that holds a core is that core's,
// until the worker retires it: one whose delegated TX completion is still
// outstanding is on no core and in no queue, by design.
func (s *Scheduler) checkRunnable() error {
	var woken, onRings, preempted, inQueues int
	for _, r := range s.reqs {
		switch {
		case r.Pkt == nil || r.retired: // recycled, or only its TX completion is left
		case r.state == flatReady:
			woken++
		case r.state == flatQueued:
			preempted++
		case r.state == flatRunning && r.worker.req != r:
			return simcheck.New("sched/core-liveness", "running request is on no core").
				With("worker", r.worker.id).With("request", r.Pkt.ID)
		}
	}
	count := func(r *Request) {
		if r.state == flatQueued {
			inQueues++
		}
	}
	for i := 0; i < s.central.Len(); i++ {
		count(s.central.at(i))
	}
	for _, d := range s.dispatchers {
		if d.pc == dDeliver {
			count(d.item)
		}
	}
	for _, w := range s.workers {
		onRings += w.ready.Len()
		for i := 0; i < w.inbox.Len(); i++ {
			count(w.inbox.at(i))
		}
		if w.pc == wStolen {
			count(w.work)
		}
	}
	if woken != onRings || preempted != inQueues {
		return simcheck.New("sched/core-liveness",
			"runnable requests and the queues that hold them disagree").
			With("woken", woken).With("on-ready-rings", onRings).
			With("preempted", preempted).With("in-queues", inQueues)
	}
	return nil
}
