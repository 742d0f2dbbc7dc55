// Package fabric models the passive switching fabric of the interconnect.
//
// The fabric has no buffering and no control logic of its own (paper §4): it
// realizes whatever input→output mapping is currently held in its
// configuration register. At every TDM slot boundary the register is loaded
// with the connection list of one of the scheduler's K configurations.
//
// Two fabric technologies from the paper are modeled:
//
//   - Digital: a conventional digital crossbar with serial→parallel
//     conversion at the ports and a 10 ns traversal (used by the wormhole
//     baseline).
//   - LVDS/optical: a Low-Voltage Differential Signal (or optical) crosspoint
//     where the signal stays in the analog domain; traversal is under 2 ns
//     and is neglected, and no serdes is needed at the switch (used by the
//     circuit-switched and TDM networks).
package fabric

import (
	"fmt"

	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
)

// Technology selects the crossbar implementation.
type Technology int

const (
	// Digital is a conventional digital crossbar: 10 ns traversal, serdes at
	// the switch ports.
	Digital Technology = iota
	// LVDS is an LVDS or optical crosspoint: negligible traversal, no serdes
	// at the switch.
	LVDS
)

// String implements fmt.Stringer.
func (t Technology) String() string {
	switch t {
	case Digital:
		return "digital"
	case LVDS:
		return "lvds"
	default:
		return fmt.Sprintf("Technology(%d)", int(t))
	}
}

// TraversalDelay returns the propagation delay through the crossbar for the
// technology, per paper §5.
func (t Technology) TraversalDelay() sim.Time {
	switch t {
	case Digital:
		return 10
	case LVDS:
		return 0
	default:
		panic(fmt.Sprintf("fabric: unknown technology %d", int(t)))
	}
}

// Crossbar is an NxN passive crossbar with a configuration register. The
// register is a port map loaded from the slot's connection list, so loading
// and checking a slot costs O(connections), not O(N²).
type Crossbar struct {
	n     int
	out   []int32         // out[u]: output connected to input u, or -1
	conns []topology.Conn // the loaded list, in load order
	// seen stamps the ports of the list or port map under validation:
	// seen[u] for input u and seen[n+v] for output v hold gen when it uses
	// the port. Bumping gen forgets every stamp at once.
	seen    []uint32
	gen     uint32
	applied int // number of successful Apply calls, for stats/tests
}

// NewCrossbar builds an NxN LVDS crossbar: its traversal is neglected, and
// it reconfigures within the slot's guard band, so neither costs simulated
// time.
func NewCrossbar(n int) *Crossbar {
	if n <= 0 {
		panic(fmt.Sprintf("fabric: invalid port count %d", n))
	}
	c := &Crossbar{
		n:    n,
		out:  make([]int32, n),
		seen: make([]uint32, 2*n),
	}
	for u := range c.out {
		c.out[u] = -1
	}
	return c
}

// Ports returns N.
func (c *Crossbar) Ports() int { return c.n }

// Applied returns how many configurations have been loaded so far.
func (c *Crossbar) Applied() int { return c.applied }

// Apply loads a slot's connection list into the configuration register. The
// list must be a partial permutation of the N ports: every port in range, no
// input and no output used twice. Anything else is not realizable on a
// crossbar and indicates a scheduler bug, so Apply returns an error and
// leaves the register unchanged. The check and the load each cost
// O(connections).
func (c *Crossbar) Apply(conns []topology.Conn) error {
	if err := c.validate(conns); err != nil {
		return err
	}
	c.commit(conns)
	return nil
}

// nextGen starts a validation with fresh port stamps.
func (c *Crossbar) nextGen() {
	c.gen++
	if c.gen == 0 {
		// The stamps wrapped: forget them all once in 2³² checks.
		clear(c.seen)
		c.gen = 1
	}
}

// validate is Apply's partial-permutation check. It changes only its own
// port stamps, never the register.
func (c *Crossbar) validate(conns []topology.Conn) error {
	c.nextGen()
	for _, conn := range conns {
		u, v := conn.Src, conn.Dst
		if uint(u) >= uint(c.n) || uint(v) >= uint(c.n) {
			return fmt.Errorf("fabric: connection %v outside the %d ports", conn, c.n)
		}
		if c.seen[u] == c.gen {
			return fmt.Errorf("fabric: configuration is not a partial permutation (input %d used twice)", u)
		}
		if c.seen[c.n+v] == c.gen {
			return fmt.Errorf("fabric: configuration is not a partial permutation (output %d used twice)", v)
		}
		c.seen[u], c.seen[c.n+v] = c.gen, c.gen
	}
	return nil
}

// commit replaces the register's contents with a validated list: it clears
// the previous list's port-map entries, then writes the new ones.
func (c *Crossbar) commit(conns []topology.Conn) {
	for _, conn := range c.conns {
		c.out[conn.Src] = -1
	}
	for _, conn := range conns {
		c.out[conn.Src] = int32(conn.Dst)
	}
	c.conns = append(c.conns[:0], conns...)
	c.applied++
}

// isPortMap reports whether cfg is a port map over the N ports that is a
// partial permutation: N entries, each an output in range or -1, no output
// used twice. Like validate, it changes only the port stamps.
func (c *Crossbar) isPortMap(cfg []int32) bool {
	if len(cfg) != c.n {
		return false
	}
	c.nextGen()
	for _, v := range cfg {
		if v == -1 {
			continue
		}
		if uint(v) >= uint(c.n) || c.seen[c.n+int(v)] == c.gen {
			return false
		}
		c.seen[c.n+int(v)] = c.gen
	}
	return true
}
