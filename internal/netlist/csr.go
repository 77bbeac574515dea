package netlist

// CSR is a flattened, cache-friendly view of the netlist for hot loops
// that cannot afford per-event pointer chasing: the event-driven
// simulator's kernel walks these arrays with pure index arithmetic
// instead of loading Net.Fanout slice headers and Gate.Inputs slices.
//
// Fanout edges are stored compressed-sparse-row style: the edges of net
// id live in FanoutEdges[FanoutStart[id]:FanoutStart[id+1]]. Each edge
// packs the reading gate and the input pin it feeds, one edge per
// (gate, pin) occurrence — a net wired to two pins of the same gate
// contributes two edges, so flipping the per-pin bit once per edge
// keeps a packed input-value bitset exact.
//
// The view is derived data: it is built once on first use, cached on
// the Netlist (which is immutable once built, like the topological
// order cache), and never mutated afterwards, so any number of
// simultaneously-live runners can share it read-only.
type CSR struct {
	// FanoutStart has NumNets()+1 entries; FanoutEdges[FanoutStart[i]:
	// FanoutStart[i+1]] are net i's fanout edges in (gate, pin) order.
	FanoutStart []int32
	// FanoutEdges packs gateID<<2 | pin per edge (pins are 0..2; the
	// cell library's maximum arity is 3).
	FanoutEdges []int32
	// Topo lists gate ids in topological order (inputs before readers),
	// for sweeps that evaluate the whole netlist in one pass, such as
	// the simulator's waveform kernel and bitslice prepass. Topo, TopoIn
	// and FanoutPos are nil if the netlist is cyclic — but cyclic
	// netlists never reach a runner (NewRunner checks).
	Topo []int32
	// TopoIn holds each gate's input nets in topological order, padded
	// to PinsPerGate entries: the gate at position p of Topo reads net
	// TopoIn[p*PinsPerGate+j] on pin j (-1 if unused).
	TopoIn []int32
	// FanoutPos parallels FanoutEdges with the reading gate's position
	// in Topo: FanoutPos[e] packs position<<2 | pin for edge e.
	FanoutPos []int32
}

// PinsPerGate is the fixed per-gate input stride of CSR.TopoIn: the
// cell library's maximum arity.
const PinsPerGate = 3

// EdgeGate unpacks the reading gate of a CSR fanout edge.
func EdgeGate(e int32) GateID { return GateID(e >> 2) }

// EdgePin unpacks the input pin of a CSR fanout edge.
func EdgePin(e int32) int { return int(e & 3) }

// CSR returns the flattened fanout/pin view, building and caching it on
// first use. Like TopoOrder, the cache is not synchronized: build it
// from one goroutine (e.g. by constructing the first runner) before
// sharing the netlist across workers.
func (n *Netlist) CSR() *CSR {
	if n.csr != nil {
		return n.csr
	}
	c := &CSR{FanoutStart: make([]int32, len(n.Nets)+1)}
	// Count edges per net, then fill with a running cursor. Iterating
	// gates in id order makes each net's edge list (gate, pin)-sorted.
	edges := 0
	for gi := range n.Gates {
		edges += len(n.Gates[gi].Inputs)
	}
	c.FanoutEdges = make([]int32, edges)
	for gi := range n.Gates {
		for _, in := range n.Gates[gi].Inputs {
			c.FanoutStart[in+1]++
		}
	}
	for i := 1; i < len(c.FanoutStart); i++ {
		c.FanoutStart[i] += c.FanoutStart[i-1]
	}
	cursor := make([]int32, len(n.Nets))
	copy(cursor, c.FanoutStart[:len(n.Nets)])
	for gi := range n.Gates {
		for pin, in := range n.Gates[gi].Inputs {
			c.FanoutEdges[cursor[in]] = int32(gi)<<2 | int32(pin)
			cursor[in]++
		}
	}
	if order, err := n.TopoOrder(); err == nil {
		c.Topo = make([]int32, len(order))
		c.TopoIn = make([]int32, len(order)*PinsPerGate)
		pos := make([]int32, len(order))
		for p, g := range order {
			c.Topo[p] = int32(g)
			pins := c.TopoIn[p*PinsPerGate : (p+1)*PinsPerGate]
			for j := range pins {
				pins[j] = -1
			}
			for j, in := range n.Gates[g].Inputs {
				pins[j] = int32(in)
			}
			pos[g] = int32(p)
		}
		c.FanoutPos = make([]int32, len(c.FanoutEdges))
		for e, edge := range c.FanoutEdges {
			c.FanoutPos[e] = pos[edge>>2]<<2 | edge&3
		}
	}
	n.csr = c
	return c
}
