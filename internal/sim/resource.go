package sim

// Resource is a counted resource with FIFO admission: up to Capacity holders
// at once, waiters served in arrival order. With Capacity 1 it is a fair
// mutex; the simulation uses it for locks (filesystem journal, in-memory
// dictionary) and bounded service stations.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	// waiters is a ring, not a `w = w[1:]` slice: the backing array is
	// reused forever, so steady-state acquire/release never allocates.
	waiters ring[*Proc]

	// waited counts Acquire calls that had to park.
	waited int64
}

// NewResource returns a resource admitting up to capacity concurrent
// holders. Capacity must be positive.
func NewResource(eng *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: Resource capacity must be positive")
	}
	return &Resource{eng: eng, capacity: capacity}
}

// Acquire blocks the calling process until a slot is available and takes it.
func (r *Resource) Acquire(env *Env) {
	if r.inUse < r.capacity && r.waiters.len() == 0 {
		r.inUse++
		return
	}
	r.waited++
	r.waiters.push(env.p)
	env.park()
	// The releaser transferred the slot to us (inUse stays counted).
}

// Release frees a slot, handing it directly to the oldest waiter if any.
// Callable from a process or an engine callback.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of un-acquired Resource")
	}
	if r.waiters.len() > 0 {
		// Transfer the slot: inUse is unchanged, the waiter now holds it.
		r.eng.wakeAt(r.eng.now, r.waiters.pop())
		return
	}
	r.inUse--
}

// Timeline models a serially-occupied facility (a NAND die, a DMA engine) as
// a busy-until horizon instead of a queue of parked processes. Reserving
// work returns the interval it will occupy; callers schedule their own
// completion callbacks. This is far cheaper than a Resource for components
// with very high event rates and preserves FIFO service order exactly.
type Timeline struct {
	busyUntil Time
	busyTotal Duration
}

// Reserve books d of exclusive service starting no earlier than now and no
// earlier than the end of previously reserved work. It returns the start and
// end of the booked interval and advances the horizon to end.
func (tl *Timeline) Reserve(now Time, d Duration) (start, end Time) {
	start = now
	if tl.busyUntil > start {
		start = tl.busyUntil
	}
	end = start.Add(d)
	tl.busyUntil = end
	tl.busyTotal += d
	return start, end
}

// BusyTotal reports cumulative reserved service time, for utilization stats.
func (tl *Timeline) BusyTotal() Duration { return tl.busyTotal }
