package sim

import (
	"testing"

	"repro/internal/simcheck"
)

func TestTaskFiresInOrder(t *testing.T) {
	e := NewEnv(1)
	var fired []Time
	var tk *Task
	tk = NewTask(e, "tick", func() {
		fired = append(fired, e.Now())
		if len(fired) < 3 {
			tk.FireAfter(10)
		}
	})
	tk.FireAt(5)
	if !tk.Armed() {
		t.Fatal("task not armed after FireAt")
	}
	e.RunAll()
	want := []Time{5, 15, 25}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if tk.Armed() {
		t.Fatal("task still armed after run drained")
	}
}

func TestTaskSameTimeOrdering(t *testing.T) {
	// Tasks and plain events scheduled for the same instant fire in
	// schedule order — a task firing is one wheel event like any other.
	e := NewEnv(1)
	var order []string
	e.At(10, func() { order = append(order, "a") })
	tk := NewTask(e, "t", func() { order = append(order, "task") })
	tk.FireAt(10)
	e.At(10, func() { order = append(order, "b") })
	e.RunAll()
	if len(order) != 3 || order[0] != "a" || order[1] != "task" || order[2] != "b" {
		t.Fatalf("order = %v, want [a task b]", order)
	}
}

func TestTaskDoubleArmPanics(t *testing.T) {
	e := NewEnv(1)
	tk := NewTask(e, "t", func() {})
	tk.FireAt(5)
	defer func() {
		if recover() == nil {
			t.Fatal("arming an armed task did not panic")
		}
	}()
	tk.FireAt(6)
}

func TestGateArmTask(t *testing.T) {
	e := NewEnv(1)
	g := NewGate(e)
	fired := 0
	var tk *Task
	tk = NewTask(e, "waiter", func() {
		fired++
		if fired < 2 {
			if g.Arm(tk) {
				t.Fatal("gate reported pending wake; none was sent")
			}
		}
	})
	tk.FireAt(0)
	e.Run(5)
	if fired != 1 {
		t.Fatalf("task fired %d times before wake, want 1", fired)
	}
	if !g.Waiting() {
		t.Fatal("gate does not report the armed task as waiting")
	}
	e.At(10, g.Wake)
	e.RunAll()
	if fired != 2 {
		t.Fatalf("task fired %d times after wake, want 2", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("woke at %v, want 10", e.Now())
	}
}

func TestGateArmConsumesPending(t *testing.T) {
	e := NewEnv(1)
	g := NewGate(e)
	g.Wake() // pending, nobody waiting
	proceeded := false
	var tk *Task
	tk = NewTask(e, "waiter", func() {
		proceeded = g.Arm(tk)
	})
	tk.FireAt(3)
	e.RunAll()
	if !proceeded {
		t.Fatal("Arm did not consume the pending wake")
	}
	if g.Waiting() {
		t.Fatal("gate kept the task registered after a consumed wake")
	}
}

// TestGateMixedTiers checks a gate can serve a Proc waiter and a Task
// waiter in successive cycles.
func TestGateMixedTiers(t *testing.T) {
	e := NewEnv(1)
	g := NewGate(e)
	var order []string
	e.Go("p", func(p *Proc) {
		g.Wait(p)
		order = append(order, "proc")
	})
	e.At(5, g.Wake)
	e.Run(20)
	waited := false
	var tk *Task
	tk = NewTask(e, "t", func() {
		if !waited {
			waited = true
			if !g.Arm(tk) {
				return // parked; the wake at 30 re-fires us
			}
		}
		order = append(order, "task")
	})
	tk.FireAt(25)
	e.At(30, g.Wake)
	e.RunAll()
	if len(order) != 2 || order[0] != "proc" || order[1] != "task" {
		t.Fatalf("order = %v, want [proc task]", order)
	}
}

// TestSleepFastPaths: a zero sleep continues inline even with an event
// due now; a sleep with nothing due before it only advances the clock —
// except in a checked environment, where every sleep goes through the
// wheel so its oracles see each transition.
func TestSleepFastPaths(t *testing.T) {
	for _, armed := range []bool{false, true} {
		simcheck.SetArmed(armed)
		e := NewEnv(1)
		simcheck.SetArmed(false)
		checked := armed || simcheck.TagEnabled
		var inline, skipped bool
		tk := NewTask(e, "sleeper", func() {})
		e.At(0, func() {
			e.At(0, func() {})
			inline = tk.Sleep(0)
		})
		e.At(10, func() { skipped = tk.Sleep(100) })
		e.RunAll()
		if !inline {
			t.Errorf("checked=%v: Sleep(0) with an event due now did not continue inline", checked)
		}
		if skipped == checked || e.KernelStats().SkipAheads != map[bool]int64{false: 1, true: 0}[checked] {
			t.Errorf("checked=%v: Sleep(100) with nothing pending skipped ahead: %v (%d)",
				checked, skipped, e.KernelStats().SkipAheads)
		}
	}
}
