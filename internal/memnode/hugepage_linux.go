package memnode

import "syscall"

// adviseHuge asks for transparent huge pages: one fault then maps 2 MiB,
// and the host TLB covers more of the simulated memory. The advice is
// best effort — a kernel built without THP refuses it and keeps 4 KiB
// pages.
func adviseHuge(data []byte) { _ = syscall.Madvise(data, syscall.MADV_HUGEPAGE) }

// mapNoReserve keeps the overcommit heuristic from refusing a simulated
// memory larger than RAM plus swap: untouched pages are never resident.
const mapNoReserve = syscall.MAP_NORESERVE
