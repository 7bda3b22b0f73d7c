//go:build !unix

package memnode

// Without mmap the bytes come from the heap, and the registry's weak
// owners only decide when the last reference to them is dropped.
func sysMap(size int) ([]byte, error) { return make([]byte, size), nil }

func sysUnmap([]byte) {}
