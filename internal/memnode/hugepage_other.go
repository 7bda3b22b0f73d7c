//go:build !linux

package memnode

// adviseHuge has no advice to give without Linux's MADV_HUGEPAGE.
func adviseHuge([]byte) {}
