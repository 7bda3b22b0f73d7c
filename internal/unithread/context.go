package unithread

// The substance of the paper's Table 1: the cost gap between the minimal
// unithread context (80 B — argument register, callee-saved registers,
// rip/rsp, mxcsr/fpucw) and a full ucontext_t (968 B — all general
// registers, a 512 B FP/XMM save area, and a signal mask) on real
// hardware.
//
// A Go program cannot perform a genuine user-level stack switch (the
// runtime owns goroutine stacks), so the switch loops measure what
// actually differs between the two mechanisms: the volume of
// architectural state saved and restored per switch. The layouts below
// match the System V AMD64 structures byte-for-byte in size.

// LightContext is the unithread context: exactly the state a cooperative
// switch at a call boundary must preserve under the System V AMD64 ABI
// (§3.2 of the paper). 10 × 8 = 80 bytes.
type LightContext struct {
	RIP   uint64
	RSP   uint64
	RBP   uint64
	RBX   uint64
	R12   uint64
	R13   uint64
	R14   uint64
	R15   uint64
	Arg   uint64 // first argument register (rdi)
	Ctrl  uint32 // mxcsr
	Fpucw uint16 // x87 control word
	_     uint16
}

// FullContext mirrors glibc's ucontext_t footprint (x86-64): flags and
// link, a stack descriptor, 23 general-purpose machine registers, a
// 512-byte FXSAVE area for the FP/SSE state, and a 128-byte signal mask.
// Total 968 bytes.
type FullContext struct {
	flags   uint64
	link    uint64
	stackSP uint64
	stackFl uint32
	_       uint32
	stackSz uint64
	Gregs   [23]uint64
	fpPtr   uint64
	SigMask [16]uint64
	FpState [512]byte
	_       [96]byte // ssp, alignment, and reserved tail of ucontext_t
}

// cpu is the architectural state the switch routines save and restore.
// It stands in for the real register file: the memory traffic is what
// distinguishes the two mechanisms.
type cpu struct {
	gregs   [16]uint64
	mxcsr   uint32
	fpucw   uint16
	fpstate [512]byte
}

var theCPU cpu

// SwitchLight performs one unithread-style context switch: save the
// callee-saved state of the current context into from, then load to.
// Floating-point registers beyond the control words are *not* touched —
// the ABI makes the caller responsible for them, which is the paper's
// key trick.
//
//go:noinline
func SwitchLight(from, to *LightContext) {
	c := &theCPU
	// Save.
	from.RSP = c.gregs[4]
	from.RBP = c.gregs[5]
	from.RBX = c.gregs[3]
	from.R12 = c.gregs[12]
	from.R13 = c.gregs[13]
	from.R14 = c.gregs[14]
	from.R15 = c.gregs[15]
	from.RIP = c.gregs[0]
	from.Ctrl = c.mxcsr
	from.Fpucw = c.fpucw
	// Restore.
	c.gregs[4] = to.RSP
	c.gregs[5] = to.RBP
	c.gregs[3] = to.RBX
	c.gregs[12] = to.R12
	c.gregs[13] = to.R13
	c.gregs[14] = to.R14
	c.gregs[15] = to.R15
	c.gregs[0] = to.RIP
	c.gregs[7] = to.Arg
	c.mxcsr = to.Ctrl
	c.fpucw = to.Fpucw
}

// SwitchFull performs one ucontext-style switch (swapcontext): save all
// general registers, the full FP/SSE state (FXSAVE), and the signal
// mask; then restore them from to.
//
//go:noinline
func SwitchFull(from, to *FullContext) {
	c := &theCPU
	// Save: all 16 GP registers plus segment/flag slots.
	for i := 0; i < 16; i++ {
		from.Gregs[i] = c.gregs[i]
	}
	for i := 16; i < 23; i++ {
		from.Gregs[i] = uint64(i) // cs/fs/gs/eflags/err/trapno/oldmask slots
	}
	copy(from.FpState[:], c.fpstate[:]) // FXSAVE
	for i := range from.SigMask {       // sigprocmask save
		from.SigMask[i] = theSigmask[i]
	}
	// Restore.
	for i := 0; i < 16; i++ {
		c.gregs[i] = to.Gregs[i]
	}
	copy(c.fpstate[:], to.FpState[:]) // FXRSTOR
	for i := range to.SigMask {
		theSigmask[i] = to.SigMask[i]
	}
	c.mxcsr = uint32(to.Gregs[0])
	c.fpucw = uint16(to.Gregs[1])
}

var theSigmask [16]uint64
