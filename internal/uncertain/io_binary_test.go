package uncertain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

// encodeV1 is the legacy v1 triple encoder, kept for tests only: the
// package reads v1 but no longer writes it. It builds the corrupt-v1 cases
// and the v1 decode benchmark corpus, and TestLegacyV1Fixture holds it to
// the bytes the removed writer produced.
func encodeV1(g *Graph) []byte {
	le := binary.LittleEndian
	out := le.AppendUint32(nil, binaryMagic)
	out = le.AppendUint32(out, binaryVersion)
	out = le.AppendUint32(out, uint32(g.NumNodes()))
	out = le.AppendUint32(out, uint32(g.NumEdges()))
	for _, e := range g.SortedEdges() {
		out = le.AppendUint32(out, uint32(e.U))
		out = le.AppendUint32(out, uint32(e.V))
		out = le.AppendUint64(out, math.Float64bits(e.P))
	}
	return out
}

// legacyGraph is the graph in testdata/legacy.v1, a file written by the
// v1 writer before it was removed: vertex 5 is isolated, and 0.1 and
// 0.123456789 are off the q16 grid.
func legacyGraph(t *testing.T) *Graph {
	return mustGraph(t, 6, Edge{0, 1, 0.5}, Edge{0, 3, 0.1}, Edge{1, 2, 1},
		Edge{2, 3, 0.123456789}, Edge{3, 4, 0}, Edge{1, 4, 0.75})
}

// legacyFingerprint is Fingerprint(legacyGraph), as GraphHash computed it
// through the v1 writer. Checkpoints and spools on disk carry values of
// this function; it must never change.
const legacyFingerprint uint64 = 0xa5b88454e5f682bc

// TestLegacyV1Fixture pins v1 read compatibility to a file written by the
// removed v1 writer: every read path decodes it to the same graph, the
// test encoder reproduces it byte for byte, and Fingerprint hashes exactly
// its bytes.
func TestLegacyV1Fixture(t *testing.T) {
	const path = "testdata/legacy.v1"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := legacyGraph(t)
	if !bytes.Equal(encodeV1(want), data) {
		t.Fatal("encodeV1 does not reproduce testdata/legacy.v1")
	}
	h := fnv.New64a()
	h.Write(data)
	if got := h.Sum64(); got != legacyFingerprint {
		t.Fatalf("FNV-64a of the fixture = %#x, want %#x", got, legacyFingerprint)
	}
	if got := Fingerprint(want); got != legacyFingerprint {
		t.Fatalf("Fingerprint = %#x, want %#x", got, legacyFingerprint)
	}

	fromBinary, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	fromFile, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	for name, got := range map[string]*Graph{"ReadBinary": fromBinary, "LoadFile": fromFile} {
		if !want.Equal(got) {
			t.Errorf("%s decoded a different graph", name)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := mustGraph(t, 5, Edge{0, 1, 0.5}, Edge{2, 3, 0.125}, Edge{0, 4, 1}, Edge{1, 4, 0})
	h, err := ReadBinary(bytes.NewReader(encodeV1(g)))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("v1 decode changed the graph")
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	g := mustGraph(t, 3, Edge{0, 2, 0.75})
	path := filepath.Join(t.TempDir(), "g.ug2")
	if err := SaveBinaryV2File(path, g); err != nil {
		t.Fatal(err)
	}
	h, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("file round trip changed the graph")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"short":     {1, 2, 3},
		"bad magic": append([]byte{0, 0, 0, 0}, make([]byte, 12)...),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("want ErrBadFormat, got %v", err)
			}
		})
	}
}

func TestBinaryRejectsBadVersion(t *testing.T) {
	data := encodeV1(mustGraph(t, 2, Edge{0, 1, 0.5}))
	data[4] = 99 // corrupt version
	if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("want ErrBadFormat, got %v", err)
	}
}

func TestBinaryRejectsTruncatedEdges(t *testing.T) {
	data := encodeV1(mustGraph(t, 3, Edge{0, 1, 0.5}, Edge{1, 2, 0.5}))
	data = data[:len(data)-7] // cut into the last edge
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated edge data should error")
	}
}

func TestBinaryRejectsImpossibleCounts(t *testing.T) {
	// Header says 2 nodes, 9 edges: impossible for a simple graph.
	data := encodeV1(mustGraph(t, 2, Edge{0, 1, 0.5}))
	data[12] = 9 // edge count low byte
	if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("want ErrBadFormat, got %v", err)
	}
}

// TestWriteBinaryRejectsOversizedGraph locks the writer-side count guard:
// a graph with more than MaxFileNodes vertices would produce a file
// ReadBinary refuses, so the writer must refuse up front instead. The graph is built as a bare struct literal — the
// guard only needs the counts, and New would allocate adjacency slices for
// 16M+ vertices.
func TestWriteBinaryRejectsOversizedGraph(t *testing.T) {
	g := &Graph{n: MaxFileNodes + 1}
	if err := WriteBinaryV2(&bytes.Buffer{}, g); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("WriteBinaryV2 on %d nodes: want ErrTooLarge, got %v", MaxFileNodes+1, err)
	}
	if _, err := NewV2Writer(&bytes.Buffer{}, MaxFileNodes+1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("NewV2Writer on %d nodes: want ErrTooLarge, got %v", MaxFileNodes+1, err)
	}
}

// TestBinaryRejectsTrailingGarbage locks the clean-EOF contract: the v1
// reader used to stop after m edges and silently ignore whatever followed,
// so a mis-framed or corrupt-header file could parse as a smaller graph.
func TestBinaryRejectsTrailingGarbage(t *testing.T) {
	data := append(encodeV1(mustGraph(t, 3, Edge{0, 1, 0.5}, Edge{1, 2, 0.25})), 0xAB)
	if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("trailing byte: want ErrBadFormat, got %v", err)
	}
}

// TestBinaryRejectsEndpointBeyondHeaderN locks the endpoint guard: the v1
// reader used to compare endpoints against the global MaxFileNodes cap
// instead of the header's node count, so an endpoint in (n, MaxFileNodes]
// fell through to AddEdge and surfaced as a construction error rather
// than ErrBadFormat.
func TestBinaryRejectsEndpointBeyondHeaderN(t *testing.T) {
	// A v1 file n=3, m=1, edge (1, 2) whose v is then patched to 5 >= n.
	data := encodeV1(mustGraph(t, 3, Edge{1, 2, 0}))
	data[20] = 5
	if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("endpoint 5 with n=3: want ErrBadFormat, got %v", err)
	}
}

func TestBinaryQuickRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		n := 2 + rng.IntN(40)
		g := New(n)
		for i := 0; i < 2*n; i++ {
			u := NodeID(rng.IntN(n))
			v := NodeID(rng.IntN(n))
			if u == v || g.HasEdge(u, v) {
				continue
			}
			g.MustAddEdge(u, v, rng.Float64())
		}
		var buf bytes.Buffer
		if err := WriteBinaryV2(&buf, g); err != nil {
			return false
		}
		h, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return g.Equal(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBinarySmallerThanTSV(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	g := New(500)
	for g.NumEdges() < 2000 {
		u := NodeID(rng.IntN(500))
		v := NodeID(rng.IntN(500))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, rng.Float64())
	}
	var tsv, bin bytes.Buffer
	if err := WriteTSV(&tsv, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryV2(&bin, g); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= tsv.Len() {
		t.Fatalf("binary (%d bytes) should beat TSV (%d bytes)", bin.Len(), tsv.Len())
	}
}

func TestLoadFileAutoDetectsBinary(t *testing.T) {
	g := mustGraph(t, 4, Edge{0, 1, 0.5}, Edge{2, 3, 0.25})
	dir := t.TempDir()
	binPath := filepath.Join(dir, "g.bin")
	tsvPath := filepath.Join(dir, "g.tsv")
	if err := SaveBinaryV2File(binPath, g); err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(tsvPath, g); err != nil {
		t.Fatal(err)
	}
	fromBin, err := LoadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	fromTSV, err := LoadFile(tsvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !fromBin.Equal(g) || !fromTSV.Equal(g) {
		t.Fatal("auto-detected loads should match the original")
	}
}
