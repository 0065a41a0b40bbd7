package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadBinary checks that the binary decoder never panics or
// over-allocates on arbitrary input, and that anything it accepts
// satisfies the CSR invariants and round-trips.
func FuzzReadBinary(f *testing.F) {
	// Seed with valid encodings of assorted graphs plus corruptions.
	for _, g := range []*Graph{
		MustFromEdges(1, nil, true),
		Path(5),
		Star(8),
		RandomUndirected(20, 40, 1),
		MustFromEdges(3, []Edge{{U: 0, V: 1}}, false),
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		if buf.Len() > 4 {
			f.Add(buf.Bytes()[:buf.Len()/2]) // truncation
		}
	}
	f.Add([]byte{})
	f.Add([]byte("CRCWGR1\n"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := validateCSR(g); err != nil {
			t.Fatalf("accepted graph violates CSR invariants: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !graphsEqual(g, back) {
			t.Fatal("decode/encode/decode not a fixed point")
		}
	})
}

// FuzzReadEdgeList checks the text parser never panics and that accepted
// graphs are well-formed.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("# 3 2 undirected\n0 1\n1 2\n")
	f.Add("# 2 1 directed\n0 1\n")
	f.Add("# 0 0 undirected\n")
	f.Add("")
	f.Add("# x y z\n")
	f.Add("# 3 2 undirected\n0 1\n# comment\n\n1 2\n")
	f.Add("# 9999999 1 undirected\n0 1\n")

	f.Fuzz(func(t *testing.T, data string) {
		if len(data) > 1<<16 {
			return
		}
		g, err := ReadEdgeList(strings.NewReader(data))
		if err != nil {
			return
		}
		if err := validateCSR(g); err != nil {
			t.Fatalf("accepted graph violates CSR invariants: %v", err)
		}
		if msg := arcSourceMismatch(g); msg != "" {
			t.Fatal(msg)
		}
	})
}
