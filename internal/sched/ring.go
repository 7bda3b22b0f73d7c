package sched

// ring is a reusable FIFO backed by a power-of-two circular buffer. The
// worker inbox and ready queues previously used copy-shift slices —
// every pop moved the whole tail, O(n) per request once queues deepen
// under load. The ring pops from either end in O(1), vacates slots (so
// popped pointers do not pin their referents), and grows by doubling
// with an order-preserving copy, so steady state never allocates.
type ring[T any] struct {
	buf  []T
	head int // index of the front element
	n    int // occupied count
}

// Len reports the number of queued elements.
func (r *ring[T]) Len() int { return r.n }

// at returns the i-th oldest element (the end-of-run audit walks queues).
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)&(len(r.buf)-1)] }

// PushBack appends v at the tail.
func (r *ring[T]) PushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PopFront removes and returns the oldest element. Empty pops panic via
// the index below — callers check Len first.
func (r *ring[T]) PopFront() T {
	if r.n == 0 {
		panic("sched: PopFront on empty ring")
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// PopBack removes and returns the newest element (the steal path takes
// from the victim's tail).
func (r *ring[T]) PopBack() T {
	if r.n == 0 {
		panic("sched: PopBack on empty ring")
	}
	i := (r.head + r.n - 1) & (len(r.buf) - 1)
	v := r.buf[i]
	var zero T
	r.buf[i] = zero
	r.n--
	return v
}

// grow doubles capacity (min 8), unwrapping the occupied region to the
// start of the new buffer.
func (r *ring[T]) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	if r.n > 0 {
		m := copy(buf, r.buf[r.head:])
		copy(buf[m:], r.buf[:r.head])
	}
	r.buf, r.head = buf, 0
}
