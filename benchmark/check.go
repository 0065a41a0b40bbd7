package main

import (
	"bytes"
	"encoding/binary"

	"crcwpram/internal/kernel"
)

// checker compares every timed run against the slice's validated first
// run, on the descriptor's deterministic projection. The oracle runs once
// per slice (Instance.Validate); each later run costs a comparison.
type checker struct {
	d   *kernel.Descriptor
	ref []byte // d.Projection of the validated run
}

// same reports whether o projects to the reference bytes. A descriptor
// without canonicalization projects to the vector little-endian followed
// by the depth, which is compared in place: allocating a projection per
// run would trigger garbage collections that overlap the timed runs.
func (c checker) same(o kernel.Outcome) bool {
	if c.d.Canon != nil || o.Vector == nil {
		return bytes.Equal(c.d.Projection(o), c.ref)
	}
	n := len(o.Vector)
	if len(c.ref) != 4*n+4 {
		return false
	}
	for i, x := range o.Vector {
		if binary.LittleEndian.Uint32(c.ref[4*i:]) != x {
			return false
		}
	}
	return binary.LittleEndian.Uint32(c.ref[4*n:]) == uint32(o.Depth)
}
