package loadgen

import (
	"testing"

	"repro/internal/ethernet"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/workload"
)

// echoApp draws requests for generator testing; echoNode answers them,
// so no handler ever runs.
type echoApp struct{}

func (echoApp) Name() string { return "echo" }
func (echoApp) NextRequest(rng *sim.RNG, _ any) (any, int) {
	return rng.Intn(100), 64
}
func (echoApp) StepHandler() workload.StepHandler { return nil }

// echoNode bounces every arriving packet straight back.
func echoNode(env *sim.Env, net *ethernet.Net) {
	gate := sim.NewGate(env)
	net.RxNotify = gate.Wake
	txq := net.CreateTxQueue("echo", rdma.NewCQ("echo"))
	env.Go("echo", func(p *sim.Proc) {
		for {
			var buf [64]*ethernet.Packet
			pkts := buf[:net.PollRxInto(buf[:])]
			if len(pkts) == 0 {
				gate.Wait(p)
				continue
			}
			for _, pkt := range pkts {
				txq.Send(pkt, nil)
			}
		}
	})
}

func TestPoissonRateAndLatency(t *testing.T) {
	env := sim.NewEnv(3)
	net := ethernet.New(env, ethernet.DefaultConfig())
	echoNode(env, net)

	const rate = 200_000
	warm, end := sim.Millis(10), sim.Millis(110)
	g := Start(env, net, echoApp{}, rate, warm, end)
	env.Run(end + sim.Millis(5))

	// Achieved throughput within 5% of offered for an instant echo.
	tput := g.Throughput(end)
	if tput < 0.95*rate || tput > 1.05*rate {
		t.Fatalf("throughput = %.0f, want ~%d", tput, rate)
	}
	// Latency ≈ two flights + serialization: ~2.2-3us.
	p50 := sim.Time(g.E2E.P50()).Micros()
	if p50 < 1.5 || p50 > 4 {
		t.Fatalf("echo p50 = %.2fus, want ~2-3us", p50)
	}
	if g.Sent.Value() == 0 || g.Delivered.Value() == 0 {
		t.Fatal("counters not advancing")
	}
	// Only measurement-window responses are counted.
	if g.Delivered.Value() > g.Sent.Value() {
		t.Fatal("delivered exceeds sent")
	}
}

func TestClassifierSplitsHistograms(t *testing.T) {
	env := sim.NewEnv(3)
	net := ethernet.New(env, ethernet.DefaultConfig())
	echoNode(env, net)
	g := Start(env, net, echoApp{}, 100_000, 0, sim.Millis(50))
	g.Classifier = func(payload any) string {
		if payload.(int)%2 == 0 {
			return "even"
		}
		return "odd"
	}
	env.Run(sim.Millis(60))
	if len(g.ByClass) != 2 {
		t.Fatalf("classes = %d, want 2", len(g.ByClass))
	}
	total := g.ByClass["even"].Count() + g.ByClass["odd"].Count()
	if total != g.E2E.Count() {
		t.Fatalf("class counts %d != total %d", total, g.E2E.Count())
	}
}

func TestGeneratorStopsAtEnd(t *testing.T) {
	env := sim.NewEnv(3)
	net := ethernet.New(env, ethernet.DefaultConfig())
	echoNode(env, net)
	g := Start(env, net, echoApp{}, 1_000_000, 0, sim.Millis(5))
	env.Run(sim.Millis(50))
	sentAt5ms := g.Sent.Value()
	env.Run(sim.Millis(100))
	if g.Sent.Value() != sentAt5ms {
		t.Fatal("generator kept sending past end")
	}
}
