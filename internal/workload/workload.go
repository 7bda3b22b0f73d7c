// Package workload defines the execution contract between applications
// and the MD scheduler — an App, and the resumable-step contract every
// request runs under (step.go) — and key-popularity generators.
package workload

import "repro/internal/sim"

// App is a runnable application: it generates request payloads (the load
// generator side) and handles them as steps (the compute node side).
type App interface {
	// Name identifies the workload in reports.
	Name() string
	// NextRequest draws a request payload and its wire size. reuse is
	// what the packet being sent last carried back (nil for a new
	// packet): when that is one of the app's message records — its
	// handler answers in the request's record — the app refills it in
	// place of boxing a new one. Ignoring reuse is always correct, and
	// the draws from rng must not depend on it.
	NextRequest(rng *sim.RNG, reuse any) (payload any, reqBytes int)
	// StepHandler returns the request handler.
	StepHandler() StepHandler
}

// Record returns the message record a NextRequest fills: reuse when it is
// one of the app's own (a *T), a new one otherwise.
func Record[T any](reuse any) *T {
	if m, ok := reuse.(*T); ok {
		return m
	}
	return new(T)
}

// Scratch returns *buf sized to n bytes, grown if need be: a handler's
// read buffer, kept in its request's message record and never in the app —
// a paged read can fault mid-record, and another request runs meanwhile.
func Scratch(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

// KeyDist generates keys in [0, n) with a given popularity distribution.
type KeyDist interface {
	Next(rng *sim.RNG) int64
	N() int64
}

// Uniform is a uniform key distribution over [0, n).
type Uniform struct{ Keys int64 }

// Next draws a uniform key.
func (u Uniform) Next(rng *sim.RNG) int64 { return rng.Int63n(u.Keys) }

// N returns the key-space size.
func (u Uniform) N() int64 { return u.Keys }

// Zipfian is a skewed key distribution with exponent S over [0, n).
type Zipfian struct {
	Keys int64
	S    float64

	z    interface{ Uint64() uint64 }
	init bool
}

// Next draws a Zipf-distributed key (most popular keys are smallest).
func (z *Zipfian) Next(rng *sim.RNG) int64 {
	if !z.init {
		z.z = rng.Zipf(z.S, uint64(z.Keys))
		z.init = true
	}
	return int64(z.z.Uint64())
}

// N returns the key-space size.
func (z *Zipfian) N() int64 { return z.Keys }
