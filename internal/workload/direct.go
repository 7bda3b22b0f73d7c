package workload

import (
	"repro/internal/paging"
	"repro/internal/sim"
)

// Direct is Blocking's mirror image: it drives a native stepper under a
// blocking Ctx, meeting each StepStatus with the Ctx method that is its
// blocking face, so an app whose only request logic is a StepHandler still
// has a Handler for examples and unit harnesses (and Blocking over Direct
// over a stepper replays the stepper's schedule: TestDirectRoundTrip). An
// abandoned fetch unwinds it as it does any direct-style handler — WaitPage
// panics — so the frame dies with the stack and Abort is not called.
func Direct(h StepHandler) Handler {
	return func(ctx Ctx, payload any) (any, int) {
		d := directCtx{Ctx: ctx}
		var f StepFrame
		h.Begin(&f, payload)
		for {
			switch resp, n, cycles, st := h.Step(&d, &f, payload); st {
			case StepDone:
				return resp, n
			case StepCompute:
				ctx.Compute(cycles)
			case StepProbe:
				ctx.Probe()
			case StepFault:
				ctx.WaitPage(d.sp, d.vpn)
				d.retry = true // the re-probe is the tail of this fault
			}
		}
	}
}

// directCtx is the StepCtx a stepper sees under Direct: nothing is free or
// inline-able, so every need comes back as a status — but Block, which is
// the embedded Ctx's and waits on the spot, leaving the StepBlock that
// follows it nothing to wait for.
type directCtx struct {
	Ctx
	sp    *paging.Space // the page of the fault in progress
	vpn   int64
	retry bool
}

func (d *directCtx) Charge(sim.Time) bool             { return false }
func (d *directCtx) ProbeFree() bool                  { return false }
func (d *directCtx) Fault(s *paging.Space, vpn int64) { d.sp, d.vpn = s, vpn }
func (d *directCtx) TryPage(s *paging.Space, vpn int64) ([]byte, bool) {
	retry := d.retry && d.sp == s && d.vpn == vpn
	d.retry = false
	page, ok := s.TryPage(vpn, retry)
	if !ok {
		d.Fault(s, vpn)
	}
	return page, ok
}
