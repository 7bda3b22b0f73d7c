//go:build unix

package memnode

import "syscall"

// sysMap maps size bytes of private anonymous memory that reserve no
// swap where the kernel would (mapNoReserve).
func sysMap(size int) ([]byte, error) {
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON|mapNoReserve)
}

func sysUnmap(data []byte) {
	// Munmap fails only on a slice Mmap did not return: a bug.
	if err := syscall.Munmap(data); err != nil {
		panic(err)
	}
}
