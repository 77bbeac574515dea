// Package verilog writes and reads structural gate-level Verilog for
// the netlists in this repository. The paper's flow starts from
// "VHDL/Verilog of circuits" and carries synthesized Verilog netlists
// between tools; this package provides that interchange artifact: the
// circuit generators' output can be dumped as a Verilog netlist,
// inspected with standard tooling, and read back for timing analysis.
//
// The supported subset is exactly what a synthesized netlist needs: one
// module, vector or scalar ports, wire declarations, and named-port
// primitive-cell instances from the internal/cells library.
package verilog

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"tevot/internal/cells"
	"tevot/internal/netlist"
)

// portPins maps each cell kind to its input pin names; the output pin is
// always Y.
func portPins(k cells.Kind) []string {
	switch k.NumInputs() {
	case 1:
		return []string{"A"}
	case 2:
		return []string{"A", "B"}
	case 3:
		if k == cells.Mux2 {
			return []string{"D0", "D1", "S"}
		}
		return []string{"A", "B", "C"}
	}
	panic("verilog: unsupported arity")
}

// busRef captures "name[idx]" net naming.
var busRef = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]$`)

// port is a reconstructed module port: a scalar or a contiguous vector.
type port struct {
	name  string
	width int             // 1 for scalar
	nets  []netlist.NetID // LSB first
}

// groupPorts reconstructs vector ports from per-bit net names.
func groupPorts(nl *netlist.Netlist, ids []netlist.NetID) ([]port, error) {
	type bit struct {
		idx int
		net netlist.NetID
	}
	order := []string{}
	groups := map[string][]bit{}
	for _, id := range ids {
		name := nl.Nets[id].Name
		if m := busRef.FindStringSubmatch(name); m != nil {
			idx, err := strconv.Atoi(m[2])
			if err != nil {
				return nil, err
			}
			if _, seen := groups[m[1]]; !seen {
				order = append(order, m[1])
			}
			groups[m[1]] = append(groups[m[1]], bit{idx, id})
		} else {
			if _, seen := groups[name]; !seen {
				order = append(order, name)
			}
			groups[name] = append(groups[name], bit{0, id})
		}
	}
	var ports []port
	for _, name := range order {
		bits := groups[name]
		sort.Slice(bits, func(i, j int) bool { return bits[i].idx < bits[j].idx })
		p := port{name: name, width: len(bits)}
		for i, b := range bits {
			if len(bits) > 1 && b.idx != i {
				return nil, fmt.Errorf("verilog: port %q has non-contiguous bit %d", name, b.idx)
			}
			p.nets = append(p.nets, b.net)
		}
		ports = append(ports, p)
	}
	return ports, nil
}

// netRef renders the Verilog reference for a net: a port bit for primary
// I/O, 1'b0/1'b1 for the constants, or the generated wire name.
func netRef(nl *netlist.Netlist, id netlist.NetID, portBits map[netlist.NetID]string) string {
	if s, ok := portBits[id]; ok {
		return s
	}
	switch id {
	case nl.Const0:
		return "1'b0"
	case nl.Const1:
		return "1'b1"
	}
	return fmt.Sprintf("n%d", id)
}

// Write emits the netlist as structural Verilog.
func Write(w io.Writer, nl *netlist.Netlist) error {
	bw := bufio.NewWriter(w)
	inPorts, err := groupPorts(nl, nl.PrimaryInputs)
	if err != nil {
		return err
	}
	outPorts, err := groupPorts(nl, nl.PrimaryOutputs)
	if err != nil {
		return err
	}

	portBits := map[netlist.NetID]string{}
	var portNames []string
	declare := func(ports []port, dir string) {
		for _, p := range ports {
			portNames = append(portNames, p.name)
			if p.width == 1 {
				fmt.Fprintf(bw, "  %s %s;\n", dir, p.name)
				portBits[p.nets[0]] = p.name
			} else {
				fmt.Fprintf(bw, "  %s [%d:0] %s;\n", dir, p.width-1, p.name)
				for i, id := range p.nets {
					portBits[id] = fmt.Sprintf("%s[%d]", p.name, i)
				}
			}
		}
	}

	// Module header needs the port list before the declarations, so
	// render the declarations to a side buffer first.
	var decl strings.Builder
	saved := bw
	bw = bufio.NewWriter(&decl)
	declare(inPorts, "input")
	declare(outPorts, "output")
	bw.Flush()
	bw = saved

	fmt.Fprintf(bw, "// Generated by tevot (structural netlist, %d gates)\n", nl.NumGates())
	fmt.Fprintf(bw, "module %s (%s);\n", moduleName(nl.Name), strings.Join(portNames, ", "))
	bw.WriteString(decl.String())

	// Wires for all internal gate outputs.
	for gi := range nl.Gates {
		out := nl.Gates[gi].Output
		if _, isPort := portBits[out]; !isPort {
			fmt.Fprintf(bw, "  wire n%d;\n", out)
		}
	}
	// Instances.
	for gi := range nl.Gates {
		g := &nl.Gates[gi]
		pins := portPins(g.Kind)
		var conns []string
		conns = append(conns, fmt.Sprintf(".Y(%s)", netRef(nl, g.Output, portBits)))
		for i, in := range g.Inputs {
			conns = append(conns, fmt.Sprintf(".%s(%s)", pins[i], netRef(nl, in, portBits)))
		}
		fmt.Fprintf(bw, "  %s %s (%s);\n", g.Kind, g.Name, strings.Join(conns, ", "))
	}
	fmt.Fprintf(bw, "endmodule\n")
	return bw.Flush()
}

func moduleName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "top"
	}
	return string(out)
}
