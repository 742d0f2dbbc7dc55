package nic

// Buffer constructors and queries that only the tests use.

import (
	"fmt"

	"pmsnet/internal/topology"
)

// NewOutBuffer creates the output buffer of NIC `id` in an N-processor
// system, with a queue toward every other processor.
func NewOutBuffer(id, n int) *OutBuffer {
	if n <= 0 || id < 0 || id >= n {
		panic(fmt.Sprintf("nic: invalid NIC id %d for %d processors", id, n))
	}
	t := topology.NewConnTable(n, func(src int, add func(dst int)) {
		if src != id {
			return
		}
		for v := 0; v < n; v++ {
			if v != id {
				add(v)
			}
		}
	})
	return NewOutBuffers(t)[id]
}

// NextFIFO returns the oldest queued message across all destinations, or
// nil. Wormhole and circuit switching serve messages in this order.
func (b *OutBuffer) NextFIFO() *Message { return b.first }

// BytesFor returns the unsent bytes queued toward dst.
func (b *OutBuffer) BytesFor(dst int) int64 {
	if id := b.Conn(dst); id >= 0 {
		return b.Bytes(id)
	}
	return 0
}
