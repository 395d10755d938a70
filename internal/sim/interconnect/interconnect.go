// Package interconnect models the contended shared media of the simulated
// platforms: the SMP memory bus, the bus-based (Ethernet) and switch-based
// (ATM) cluster networks, and per-machine I/O buses. A resource serializes
// transfers: a request arriving while the medium is busy waits for it to
// drain, which is exactly how the paper's latency numbers behave (the
// quoted remote latencies are the serialization time of one block
// transfer).
//
//chc:deterministic
package interconnect

// Resource is a single serially-occupied medium.
type Resource struct {
	Name   string
	freeAt float64

	busy     float64 // total occupied cycles
	waited   float64 // total queueing delay imposed
	requests uint64
}

// NewResource returns an idle resource.
func NewResource(name string) *Resource { return &Resource{Name: name} }

// Acquire occupies the resource for duration cycles starting no earlier
// than now, returning the completion time. Requests are served in arrival
// order (the engine presents them in global time order).
func (r *Resource) Acquire(now, duration float64) (done float64) {
	start := now
	if r.freeAt > start {
		start = r.freeAt
	}
	r.waited += start - now
	r.busy += duration
	r.requests++
	r.freeAt = start + duration
	return r.freeAt
}

// Requests returns the number of transfers served.
func (r *Resource) Requests() uint64 { return r.requests }

// BusyCycles returns the total cycles the medium was occupied.
func (r *Resource) BusyCycles() float64 { return r.busy }

// WaitCycles returns the total queueing delay imposed on requesters.
func (r *Resource) WaitCycles() float64 { return r.waited }

// Utilization returns busy/elapsed for a run of the given length.
func (r *Resource) Utilization(elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := r.busy / elapsed
	if u > 1 {
		u = 1
	}
	return u
}

// MeanWait returns the average queueing delay per request.
func (r *Resource) MeanWait() float64 {
	if r.requests == 0 {
		return 0
	}
	return r.waited / float64(r.requests)
}
