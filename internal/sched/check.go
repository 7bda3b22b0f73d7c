package sched

import "repro/internal/simcheck"

// This file holds the scheduler's end-of-run oracle (see package
// simcheck). It is observational: it reads state, never changes it.
//
//	sched/core-liveness  every worker and dispatcher core can still be
//	                     woken: its task is armed, or it sits in a waiter
//	                     slot something will signal

// pointNames name the continuation points of worker.go and flat.go, for
// violation reports.
var pointNames = [...]string{
	wLoop: "loop", wPolled: "polled", wPick: "pick", wSteal: "steal",
	wProbed: "probed", wStolen: "stolen", wWoken: "idle", wSpawned: "spawned",
	wHandoff: "handoff", wReturned: "unithread-running",
	flatOpen: "flat-open", flatBegin: "flat-begin", flatJitter: "flat-jitter",
	flatStep: "flat-step", flatFaultOpen: "flat-fault-open", flatFault: "flat-fault",
	flatRequest: "flat-request", flatFaultDone: "flat-fault-done",
	flatMapped: "flat-mapped", flatTxPosted: "flat-tx-posted", flatSend: "flat-send",
	flatTxWait: "flat-tx-wait", flatFinish: "flat-finish", flatClose: "flat-close",
	flatClosed: "flat-closed",
}

var dispatcherPointNames = [...]string{
	dPoll: "idle", dAdmit: "admit", dReap: "reap", dRecycle: "recycle",
	dAssign: "assign", dDeliver: "deliver",
}

// CheckLiveness is the sched/core-liveness oracle. The cores are tasks,
// so the kernel's lost-wakeup audit (which walks parked processes) cannot
// see one that wedged. Between events a live core is either armed on the
// wheel or registered where a wake will find it: its idle, run or TX
// gate, a QP's slot waiters, the frame pool. A core that is neither will
// never run again; neither will a worker waiting on its idle gate with
// work queued, whose wake was lost. Call after Start, between events
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
	return nil
}

func (w *Worker) checkLive() error {
	switch {
	case w.task.Armed(), w.runGate.Waiting(), w.txGate.Waiting(),
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
