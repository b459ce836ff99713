package uncertain

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
)

// Binary container: every binary graph file starts with the same two
// little-endian words — magic then version — followed by a version-specific
// body.
//
// Version 2 body: the sectioned format of io_v2.go — length-prefixed,
// checksummed sections carrying delta/varint-coded edges and a quantized
// probability column. It is the only binary format this package writes.
// See DESIGN.md §14.
//
// Version 1 body (legacy, read-only): node count and edge count as uint32,
// then (u uint32, v uint32, p float64bits) triples in sorted edge order.
// Files written before v2 existed still load through ReadBinary, ReadAuto
// and LoadFile. The same byte layout survives as the input to
// Fingerprint.
const (
	binaryMagic     uint32 = 0x55475247 // "UGRG"
	binaryVersion   uint32 = 1
	binaryVersionV2 uint32 = 2
)

// ErrTooLarge is returned by the v2 writer when a graph has more than
// MaxFileNodes vertices: the readers refuse such headers, so writing them
// would produce files nothing can load back.
var ErrTooLarge = errors.New("uncertain: graph too large for binary format")

// Fingerprint returns the FNV-64a hash of g's canonical edge stream: the
// v1 byte layout (magic, version word 1, n, m as uint32, then u, v as
// uint32 and the float64 bits of p for every edge in sorted order). Any
// difference in topology or probabilities, however small, changes it, and
// the value equals the hash of the graph's legacy v1 file, so fingerprints
// recorded before v1 became read-only still match.
func Fingerprint(g *Graph) uint64 {
	h := fnv.New64a()
	var rec [16]byte
	le := binary.LittleEndian
	le.PutUint32(rec[0:], binaryMagic)
	le.PutUint32(rec[4:], binaryVersion)
	le.PutUint32(rec[8:], uint32(g.NumNodes()))
	le.PutUint32(rec[12:], uint32(g.NumEdges()))
	h.Write(rec[:])
	for _, e := range g.SortedEdges() {
		le.PutUint32(rec[0:], uint32(e.U))
		le.PutUint32(rec[4:], uint32(e.V))
		le.PutUint64(rec[8:], math.Float64bits(e.P))
		h.Write(rec[:])
	}
	return h.Sum64()
}

// readBinaryHeader consumes the shared magic + version prefix and returns
// the version word.
func readBinaryHeader(br *bufio.Reader) (uint32, error) {
	var magic, version uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return 0, fmt.Errorf("%w: truncated header: %v", ErrBadFormat, err)
	}
	if magic != binaryMagic {
		return 0, fmt.Errorf("%w: bad magic %#x", ErrBadFormat, magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return 0, fmt.Errorf("%w: truncated header: %v", ErrBadFormat, err)
	}
	return version, nil
}

// requireEOF verifies the stream ends exactly where the format says it
// should: trailing bytes mean a corrupt or mis-framed file, not a graph.
func requireEOF(br *bufio.Reader) error {
	if _, err := br.ReadByte(); err == nil {
		return fmt.Errorf("%w: trailing data after graph body", ErrBadFormat)
	} else if err != io.EOF {
		return fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return nil
}

// ReadBinary parses the binary container written by WriteBinaryV2, or a
// legacy v1 file, dispatching on the version word and validating every
// edge. The stream must end cleanly at the end of the graph body; trailing
// bytes are ErrBadFormat.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	version, err := readBinaryHeader(br)
	if err != nil {
		return nil, err
	}
	switch version {
	case binaryVersion:
		return readV1Body(br)
	case binaryVersionV2:
		n, edges, err := readV2Body(br)
		if err != nil {
			return nil, err
		}
		return FromEdges(n, edges)
	default:
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, version)
	}
}

// readV1Body parses the version-1 body after the magic/version prefix.
func readV1Body(br *bufio.Reader) (*Graph, error) {
	var header [2]uint32
	for i := range header {
		if err := binary.Read(br, binary.LittleEndian, &header[i]); err != nil {
			return nil, fmt.Errorf("%w: truncated header: %v", ErrBadFormat, err)
		}
	}
	n, m := int(header[0]), int(header[1])
	if n > MaxFileNodes {
		return nil, fmt.Errorf("%w: node count %d exceeds limit", ErrBadFormat, n)
	}
	maxEdges := int64(n) * int64(n-1) / 2
	if int64(m) > maxEdges {
		return nil, fmt.Errorf("%w: %d edges impossible for %d nodes", ErrBadFormat, m, n)
	}
	g := New(n)
	for i := 0; i < m; i++ {
		var u, v uint32
		var pBits uint64
		if err := binary.Read(br, binary.LittleEndian, &u); err != nil {
			return nil, fmt.Errorf("%w: truncated edge %d: %v", ErrBadFormat, i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
			return nil, fmt.Errorf("%w: truncated edge %d: %v", ErrBadFormat, i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &pBits); err != nil {
			return nil, fmt.Errorf("%w: truncated edge %d: %v", ErrBadFormat, i, err)
		}
		// Validate against the header's node count, not the global cap:
		// any endpoint >= n can never be a vertex of this graph, and the
		// check also keeps NodeID conversion below from going negative.
		if u >= uint32(n) || v >= uint32(n) {
			return nil, fmt.Errorf("%w: edge %d endpoints (%d,%d) out of range for n=%d", ErrBadFormat, i, u, v, n)
		}
		if err := g.AddEdge(NodeID(u), NodeID(v), math.Float64frombits(pBits)); err != nil {
			return nil, fmt.Errorf("edge %d: %w", i, err)
		}
	}
	if err := requireEOF(br); err != nil {
		return nil, err
	}
	return g, nil
}
