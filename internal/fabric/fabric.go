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

	"pmsnet/internal/bitmat"
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
	n          int
	tech       Technology
	reconfigNs sim.Time
	out        []int32         // out[u]: output connected to input u, or -1
	conns      []topology.Conn // the loaded list, in load order
	// seen stamps the ports of the list under validation: seen[u] for input
	// u and seen[n+v] for output v hold gen when the list uses the port.
	// Bumping gen forgets every stamp at once.
	seen    []uint32
	gen     uint32
	applied int // number of successful Apply calls, for stats/tests
}

// NewCrossbar builds an NxN crossbar. reconfigNs is the time needed to change
// the setting of the fabric (the paper's example uses 50 ns for large optical
// fabrics; the simulated 128-port LVDS system reconfigures within the slot's
// guard band).
func NewCrossbar(n int, tech Technology, reconfigNs sim.Time) *Crossbar {
	if n <= 0 {
		panic(fmt.Sprintf("fabric: invalid port count %d", n))
	}
	if reconfigNs < 0 {
		panic(fmt.Sprintf("fabric: negative reconfiguration time %v", reconfigNs))
	}
	c := &Crossbar{
		n:          n,
		tech:       tech,
		reconfigNs: reconfigNs,
		out:        make([]int32, n),
		seen:       make([]uint32, 2*n),
	}
	for u := range c.out {
		c.out[u] = -1
	}
	return c
}

// Ports returns N.
func (c *Crossbar) Ports() int { return c.n }

// Technology returns the fabric technology.
func (c *Crossbar) Technology() Technology { return c.tech }

// ReconfigTime returns the fabric's reconfiguration time.
func (c *Crossbar) ReconfigTime() sim.Time { return c.reconfigNs }

// TraversalDelay returns the propagation delay through the fabric.
func (c *Crossbar) TraversalDelay() sim.Time { return c.tech.TraversalDelay() }

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

// validate is Apply's partial-permutation check. It changes only its own
// port stamps, never the register.
func (c *Crossbar) validate(conns []topology.Conn) error {
	c.gen++
	if c.gen == 0 {
		// The stamps wrapped: forget them all once in 2³² checks.
		clear(c.seen)
		c.gen = 1
	}
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

// OutputFor returns the output port currently connected to input u, or -1.
func (c *Crossbar) OutputFor(u int) int { return int(c.out[u]) }

// Connected reports whether input u is currently connected to output v.
func (c *Crossbar) Connected(u, v int) bool {
	return uint(v) < uint(c.n) && c.out[u] == int32(v)
}

// Connections returns the number of point-to-point connections currently
// realized.
func (c *Crossbar) Connections() int { return len(c.conns) }

// Config returns the current configuration as a new NxN matrix.
func (c *Crossbar) Config() *bitmat.Matrix {
	m := bitmat.NewSquare(c.n)
	for _, conn := range c.conns {
		m.Set(conn.Src, conn.Dst)
	}
	return m
}

// GuardBand computes the slot guard band for the paper's formula: circuits
// must stay idle while the fabric state is uncertain, which covers the
// fabric reconfiguration time plus the worst-case skew of the grant lines
// (paper §4: 50 ns reconfig + 50 ns grant propagation on a 50-foot line for a
// 1 us slot gives a 50 ns guard band, i.e. max of the two overlapping terms).
func GuardBand(reconfig, grantSkew sim.Time) sim.Time {
	if reconfig < 0 || grantSkew < 0 {
		panic(fmt.Sprintf("fabric: negative guard-band inputs %v, %v", reconfig, grantSkew))
	}
	if reconfig > grantSkew {
		return reconfig
	}
	return grantSkew
}
