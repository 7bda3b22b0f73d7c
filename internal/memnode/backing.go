package memnode

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"weak"
)

// Backing owns one anonymous mapping of simulated memory outside the Go
// heap; its bytes stay mapped exactly as long as it is reachable. The
// kernel zero-fills a page on first touch, so memory the simulator never
// writes is never made resident, and nothing re-zeroes what it does.
// Holding a pointer keeps a Backing out of the allocator's shared blocks
// for tiny pointer-free objects, whose block-mates would keep its weak
// pointer alive.
type Backing struct{ data []byte }

// minGoal is the live mapped bytes below which Map never collects: the
// floor under the goal, as the heap has one under GOGC's.
const minGoal = 64 << 20

// registry maps every live mapping's owner, held weakly, to its bytes,
// so an unreachable Backing is found by the next Map after a collection
// and unmapped there, with no finalizer left to the runtime's timing.
// The collector cannot see mapped bytes, so Map paces collections
// itself: when live plus requested bytes would pass goal it collects,
// reclaims, and sets goal to twice what is still live, as GOGC does for
// the heap.
type registry struct {
	sync.Mutex
	maps       map[weak.Pointer[Backing]][]byte
	live, goal int64
}

// mappings is the process's one registry: mappings are a process-wide
// resource, as the heap is.
var mappings = registry{maps: make(map[weak.Pointer[Backing]][]byte)}

// Map returns size zeroed bytes backed by a fresh anonymous mapping,
// with huge pages advised where the kernel has them, and the Backing
// that keeps them mapped. A size of 0 maps nothing.
func Map(size int64) ([]byte, *Backing, error) {
	if size < 0 {
		return nil, nil, fmt.Errorf("negative size %d", size)
	}
	if size > math.MaxInt {
		return nil, nil, fmt.Errorf("size %d exceeds the address space", size)
	}
	if size == 0 {
		return nil, nil, nil
	}
	m := &mappings
	m.Lock()
	defer m.Unlock()
	m.reclaim()
	if m.live+size > max(m.goal, minGoal) {
		runtime.GC()
		m.reclaim()
		m.goal = 2 * m.live
	}
	data, err := sysMap(int(size))
	if err != nil {
		return nil, nil, fmt.Errorf("mapping %d bytes: %w", size, err)
	}
	adviseHuge(data)
	b := &Backing{data}
	m.maps[weak.Make(b)] = data
	m.live += size
	return data, b, nil
}

// MappedBytes collects, unmaps every mapping whose owner is unreachable,
// and returns the bytes still mapped.
func MappedBytes() int64 {
	runtime.GC()
	m := &mappings
	m.Lock()
	defer m.Unlock()
	m.reclaim()
	return m.live
}

// reclaim unmaps every mapping whose owner has been collected.
func (m *registry) reclaim() {
	for owner, data := range m.maps {
		if owner.Value() == nil {
			sysUnmap(data)
			m.live -= int64(len(data))
			delete(m.maps, owner)
		}
	}
}
