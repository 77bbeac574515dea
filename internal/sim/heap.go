package sim

import "tevot/internal/netlist"

// event is one pending net transition, in 16 bytes: gv packs the
// net's scheduling generation above the new value (gen<<1 | val). The
// event is live while its generation is the net's current one.
type event struct {
	t   float64
	net netlist.NetID
	gv  uint32
}

// val is the value the event drives its net to.
func (e event) val() bool { return e.gv&1 != 0 }

// eventHeap is a binary min-heap on (t, net) implemented directly on a
// slice to avoid interface dispatch in the simulator's hot loop. Ties on
// time break on net id so event order — and therefore every simulation —
// is fully deterministic.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].net < h[j].net
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h).less(l, smallest) {
			smallest = l
		}
		if r < n && (*h).less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}
