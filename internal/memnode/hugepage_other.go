//go:build !linux

package memnode

// adviseHuge has no advice to give without Linux's MADV_HUGEPAGE.
func adviseHuge([]byte) {}

// mapNoReserve passes no flag off Linux, where kernels variously ignore
// MAP_NORESERVE, reject it or do not define it.
const mapNoReserve = 0
