// Package meshnet models multi-hop direct networks: a 2-D mesh of small
// routers with XY (dimension-ordered) routing. It exists to test the
// paper's concluding claim that "the advantages of our approach are expected
// to be amplified when multi-hop networks are considered since it avoids
// buffering at intermediate switches":
//
//   - Wormhole (the conventional choice for such meshes) pays per hop: every
//     router deserializes the flit stream, arbitrates the output, switches
//     it and reserializes — 30+10+10+30 ns of digital processing plus the
//     20 ns wire, for every worm, at every hop.
//   - Multi-hop TDM circuits pass through intermediate LVDS switches in the
//     analog domain: an end-to-end pipe costs one serialization, 20 ns of
//     wire per hop, and one deserialization — no buffering, no per-hop
//     arbitration. The price is that a TDM slot must reserve *every link on
//     the path* simultaneously, so path conflicts consume multiplexing
//     degree instead of router buffers.
//
// Both models share the engine, the driver and the timing constants of the
// single-crossbar models; the scheduler here packs link-disjoint XY paths
// into slots (the path generalization of the crossbar's partial-permutation
// constraint).
package meshnet

import (
	"fmt"

	"pmsnet/internal/core"
	"pmsnet/internal/link"
	"pmsnet/internal/netmodel"
	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
)

// Hop is one directed link of the mesh: from router From in direction Dir.
// Two pseudo-directions model the serial NIC links, which are resources like
// any mesh link: a node can inject at most one circuit's worth of traffic
// per slot and eject at most one.
type Hop struct {
	From int
	Dir  topology.Direction
}

// Pseudo-directions for the NIC-to-router and router-to-NIC serial links.
const (
	DirInject topology.Direction = 100
	DirEject  topology.Direction = 101
)

// links is the number of directed links a router owns: its four mesh
// directions plus its NIC's injection and ejection links.
const links = 6

// index returns h's position in a per-link array of links entries per
// router, the key the mesh models keep link state under.
func (h Hop) index() int32 {
	d := int32(h.Dir) // East, West, North, South: 0 to 3
	switch h.Dir {
	case DirInject:
		d = 4
	case DirEject:
		d = 5
	}
	return int32(h.From)*links + d
}

// Grid wraps the logical mesh with routing helpers.
type Grid struct {
	Mesh topology.Mesh
}

// NewGrid builds the routing grid for n processors (near-square mesh,
// no wraparound — XY routing on a torus needs virtual channels, which the
// paper-era systems avoided).
func NewGrid(n int) (Grid, error) {
	if n < 2 {
		return Grid{}, fmt.Errorf("meshnet: need at least 2 processors, got %d", n)
	}
	return Grid{Mesh: topology.MeshFor(n, false)}, nil
}

// Path returns the XY route from src to dst as directed hops: first the X
// dimension, then Y. Deterministic and minimal.
func (g Grid) Path(src, dst int) []Hop {
	if src == dst {
		return nil
	}
	var hops []Hop
	x1, y1 := g.Mesh.Coord(src)
	x2, y2 := g.Mesh.Coord(dst)
	cur := src
	for x1 != x2 {
		d := topology.East
		if x2 < x1 {
			d = topology.West
		}
		hops = append(hops, Hop{From: cur, Dir: d})
		cur = g.Mesh.Neighbor(cur, d)
		x1, _ = g.Mesh.Coord(cur)
	}
	for y1 != y2 {
		d := topology.South
		if y2 < y1 {
			d = topology.North
		}
		hops = append(hops, Hop{From: cur, Dir: d})
		cur = g.Mesh.Neighbor(cur, d)
		_, y1 = g.Mesh.Coord(cur)
	}
	return hops
}

// Hops returns the XY hop count between two processors.
func (g Grid) Hops(src, dst int) int { return len(g.Path(src, dst)) }

// appendFullPath appends the complete resource list of a circuit to out as
// link indices: the source's injection link, the XY mesh hops, and the
// destination's ejection link.
func (g Grid) appendFullPath(out []int32, src, dst int) []int32 {
	out = append(out, Hop{From: src, Dir: DirInject}.index())
	for _, h := range g.Path(src, dst) {
		out = append(out, h.index())
	}
	return append(out, Hop{From: dst, Dir: DirEject}.index())
}

// Timing shared by both mesh models (paper §5 constants).
type timing struct {
	lm link.Model
	// hopWire is the wire delay of one router-to-router link.
	hopWire sim.Time
	// routerDigital is the per-hop digital processing of the wormhole
	// router: deserialize + arbitrate + switch + reserialize.
	routerArb sim.Time
}

func newTiming(lm link.Model, routers int) timing {
	return timing{
		lm:        lm,
		hopWire:   lm.WireNs,
		routerArb: core.ASICLatency(routers),
	}
}

// common embeds the pieces both models share.
type common struct {
	grid   Grid
	tm     timing
	eng    *sim.Engine
	driver *netmodel.Driver
}
