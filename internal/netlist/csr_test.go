package netlist

import (
	"testing"

	"tevot/internal/cells"
)

// TestCSRMatchesNetlist cross-checks the flattened view against the
// pointerful representation on a fleet of random circuits: every
// (gate, pin) edge appears exactly once under the net it reads, Topo
// lists every gate once and the padded input pins of TopoIn line up
// with its gates', and edge lists are (gate, pin)-sorted so kernels
// iterating them are deterministic.
func TestCSRMatchesNetlist(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		nl, err := Random(RandomOptions{
			Inputs:  4 + int(seed%4),
			Gates:   15 + int(seed*11%50),
			Outputs: 1 + int(seed%3),
			Seed:    seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		c := nl.CSR()
		if nl.CSR() != c {
			t.Fatal("CSR not cached")
		}
		if got, want := len(c.FanoutStart), nl.NumNets()+1; got != want {
			t.Fatalf("FanoutStart has %d entries, want %d", got, want)
		}
		if len(c.Topo) != nl.NumGates() || len(c.TopoIn) != nl.NumGates()*PinsPerGate {
			t.Fatalf("%d gates: Topo has %d, TopoIn %d", nl.NumGates(), len(c.Topo), len(c.TopoIn))
		}
		totalPins := 0
		listed := make([]bool, nl.NumGates())
		for p, gi := range c.Topo {
			if listed[gi] {
				t.Fatalf("gate %d listed twice in Topo", gi)
			}
			listed[gi] = true
			g := &nl.Gates[gi]
			totalPins += len(g.Inputs)
			for pin := 0; pin < PinsPerGate; pin++ {
				want := int32(-1)
				if pin < len(g.Inputs) {
					want = int32(g.Inputs[pin])
				}
				if got := c.TopoIn[p*PinsPerGate+pin]; got != want {
					t.Fatalf("gate %d pin %d: TopoIn = %d, want %d", gi, pin, got, want)
				}
			}
		}
		if len(c.FanoutEdges) != totalPins {
			t.Fatalf("%d fanout edges, want %d", len(c.FanoutEdges), totalPins)
		}
		for ni := range nl.Nets {
			lo, hi := c.FanoutStart[ni], c.FanoutStart[ni+1]
			seen := make(map[int32]bool)
			for e := lo; e < hi; e++ {
				edge := c.FanoutEdges[e]
				if e > lo && edge <= c.FanoutEdges[e-1] {
					t.Fatalf("net %d: edges not (gate, pin)-sorted", ni)
				}
				if seen[edge] {
					t.Fatalf("net %d: duplicate edge %d", ni, edge)
				}
				seen[edge] = true
				g, pin := EdgeGate(edge), EdgePin(edge)
				if pin >= len(nl.Gates[g].Inputs) || nl.Gates[g].Inputs[pin] != NetID(ni) {
					t.Fatalf("net %d: edge says gate %d pin %d, but that pin reads net %v",
						ni, g, pin, nl.Gates[g].Inputs[pin])
				}
			}
			// Every occurrence of the net in every gate's pin list must
			// be covered by exactly one edge.
			occurrences := 0
			for gi := range nl.Gates {
				for _, in := range nl.Gates[gi].Inputs {
					if in == NetID(ni) {
						occurrences++
					}
				}
			}
			if occurrences != int(hi-lo) {
				t.Fatalf("net %d: %d pin occurrences but %d edges", ni, occurrences, hi-lo)
			}
		}
	}
}

// TestCSRSharedPinGate: a net feeding two pins of the same gate yields
// one edge per pin.
func TestCSRSharedPinGate(t *testing.T) {
	b := NewBuilder("shared")
	x := b.Input("x")
	o := b.Gate(cells.Xor2, x, x)
	b.Output(o)
	nl := b.MustBuild()
	c := nl.CSR()
	lo, hi := c.FanoutStart[x], c.FanoutStart[x+1]
	if hi-lo != 2 {
		t.Fatalf("net x has %d edges, want 2", hi-lo)
	}
	if EdgePin(c.FanoutEdges[lo]) != 0 || EdgePin(c.FanoutEdges[lo+1]) != 1 {
		t.Fatalf("edges carry pins (%d, %d), want (0, 1)",
			EdgePin(c.FanoutEdges[lo]), EdgePin(c.FanoutEdges[lo+1]))
	}
}

// TestCSRTopoView cross-checks the topological arrays against Topo and
// FanoutEdges: every FanoutPos entry names its edge's gate by
// topological position with the same pin, and a gate's inputs are
// driven by gates that come before it. TestCSRMatchesNetlist checks
// TopoIn.
func TestCSRTopoView(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		nl, err := Random(RandomOptions{
			Inputs:  4 + int(seed%4),
			Gates:   15 + int(seed*11%50),
			Outputs: 1 + int(seed%3),
			Seed:    seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		c := nl.CSR()
		if len(c.Topo) != nl.NumGates() || len(c.FanoutPos) != len(c.FanoutEdges) {
			t.Fatalf("lengths: Topo %d, FanoutPos %d", len(c.Topo), len(c.FanoutPos))
		}
		pos := make([]int, nl.NumGates())
		for p, g := range c.Topo {
			pos[g] = p
		}
		for p, g := range c.Topo {
			for _, in := range nl.Gates[g].Inputs {
				if d := nl.Nets[in].Driver; d != None && pos[d] >= p {
					t.Fatalf("gate %d at position %d reads a net driven from position %d", g, p, pos[d])
				}
			}
		}
		for e, edge := range c.FanoutEdges {
			fp := c.FanoutPos[e]
			if int(fp>>2) != pos[EdgeGate(edge)] || int(fp&3) != EdgePin(edge) {
				t.Fatalf("edge %d: FanoutPos %d, want position %d pin %d", e, fp, pos[EdgeGate(edge)], EdgePin(edge))
			}
		}
	}
}
