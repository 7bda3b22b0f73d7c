package stats

// Counter is a monotonically increasing event count (requests completed,
// pages fetched, drops).
type Counter struct {
	n int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// WindowedBusy tracks busy spans against a measurement window that starts
// later than time zero: spans before the window start are discarded and
// spans straddling it are clipped. This is how warm-up time is excluded
// from utilization figures.
type WindowedBusy struct {
	start int64
	busy  int64
}

// StartWindow begins the measurement window at time t, discarding all
// prior accumulation.
func (w *WindowedBusy) StartWindow(t int64) {
	w.start = t
	w.busy = 0
}

// AddInterval records a busy interval [from, to).
func (w *WindowedBusy) AddInterval(from, to int64) {
	if to <= w.start {
		return
	}
	if from < w.start {
		from = w.start
	}
	if to > from {
		w.busy += to - from
	}
}

// Utilization returns the busy fraction of [windowStart, now).
func (w *WindowedBusy) Utilization(now int64) float64 {
	window := now - w.start
	if window <= 0 {
		return 0
	}
	u := float64(w.busy) / float64(window)
	if u > 1 {
		u = 1
	}
	return u
}
