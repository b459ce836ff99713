package uncertain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
)

// randomV2Graph builds a random graph; when quantized is set, every
// probability lies on the q16 grid so the compact column engages.
func randomV2Graph(tb testing.TB, seed uint64, n, wantEdges int, quantized bool) *Graph {
	tb.Helper()
	rng := rand.New(rand.NewPCG(seed, 99))
	g := New(n)
	for g.NumEdges() < wantEdges {
		u := NodeID(rng.IntN(n))
		v := NodeID(rng.IntN(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		p := rng.Float64()
		if quantized {
			p = Quantize16(p)
		}
		g.MustAddEdge(u, v, p)
	}
	return g
}

func TestV2RoundTripQuantized(t *testing.T) {
	g := randomV2Graph(t, 7, 200, 600, true)
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("quantized v2 round trip changed the graph")
	}
}

func TestV2RoundTripExactFloats(t *testing.T) {
	// rng.Float64 values essentially never land on the q16 grid, so this
	// exercises the float64 escape column.
	g := randomV2Graph(t, 8, 150, 400, false)
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("float64 v2 round trip changed the graph")
	}
}

func TestV2RoundTripEdgeCases(t *testing.T) {
	cases := map[string]*Graph{
		"empty":      New(0),
		"no edges":   New(5),
		"single":     mustGraph(t, 2, Edge{0, 1, 0.25}),
		"p zero one": mustGraph(t, 3, Edge{0, 1, 0}, Edge{1, 2, 1}),
		"row zero":   mustGraph(t, 4, Edge{0, 1, 1}, Edge{0, 2, 1}, Edge{0, 3, 1}),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteBinaryV2(&buf, g); err != nil {
				t.Fatal(err)
			}
			h, err := ReadBinary(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !g.Equal(h) {
				t.Fatal("round trip changed the graph")
			}
		})
	}
}

func TestV2StreamingWriterMatchesWriteBinaryV2(t *testing.T) {
	g := randomV2Graph(t, 10, 80, 200, true)
	var whole, streamed bytes.Buffer
	if err := WriteBinaryV2(&whole, g); err != nil {
		t.Fatal(err)
	}
	vw, err := NewV2Writer(&streamed, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.SortedEdges() {
		if err := vw.AddEdge(e.U, e.V, e.P); err != nil {
			t.Fatal(err)
		}
	}
	if err := vw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole.Bytes(), streamed.Bytes()) {
		t.Fatal("streaming writer and whole-graph writer should emit identical bytes")
	}
}

func TestV2WriterRejectsBadEdges(t *testing.T) {
	newW := func(t *testing.T) *V2Writer {
		vw, err := NewV2Writer(&bytes.Buffer{}, 10)
		if err != nil {
			t.Fatal(err)
		}
		return vw
	}
	t.Run("unsorted", func(t *testing.T) {
		vw := newW(t)
		if err := vw.AddEdge(3, 4, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := vw.AddEdge(1, 2, 0.5); err == nil {
			t.Fatal("out-of-order edge should error")
		}
	})
	t.Run("duplicate", func(t *testing.T) {
		vw := newW(t)
		if err := vw.AddEdge(3, 4, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := vw.AddEdge(3, 4, 0.5); err == nil {
			t.Fatal("duplicate edge should error")
		}
	})
	t.Run("non canonical", func(t *testing.T) {
		vw := newW(t)
		if err := vw.AddEdge(4, 3, 0.5); err == nil {
			t.Fatal("u >= v should error")
		}
	})
	t.Run("out of range", func(t *testing.T) {
		vw := newW(t)
		if err := vw.AddEdge(3, 10, 0.5); !errors.Is(err, ErrNodeOutOfRange) {
			t.Fatalf("want ErrNodeOutOfRange, got %v", err)
		}
	})
	t.Run("bad probability", func(t *testing.T) {
		vw := newW(t)
		if err := vw.AddEdge(3, 4, 1.5); !errors.Is(err, ErrBadProbability) {
			t.Fatalf("want ErrBadProbability, got %v", err)
		}
	})
}

// v2Section frames a section the way the writer does, for hand-building
// corrupt and exotic files in tests.
func v2Section(id uint32, payload []byte) []byte {
	var buf bytes.Buffer
	if err := writeSection(&buf, id, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func v2Container(sections ...[]byte) []byte {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint32(out[0:4], binaryMagic)
	binary.LittleEndian.PutUint32(out[4:8], binaryVersionV2)
	for _, s := range sections {
		out = append(out, s...)
	}
	return out
}

// metaPayload encodes a META section payload.
func metaPayload(n, m uint64, probEnc byte) []byte {
	p := binary.AppendUvarint(nil, n)
	p = binary.AppendUvarint(p, m)
	return append(p, probEnc)
}

func TestV2SkipsUnknownSections(t *testing.T) {
	g := mustGraph(t, 3, Edge{0, 1, Quantize16(0.5)}, Edge{1, 2, Quantize16(0.25)})
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, g); err != nil {
		t.Fatal(err)
	}
	// Splice an unknown section just before END! (the last 16 header
	// bytes, since END! has no payload).
	data := buf.Bytes()
	endOff := len(data) - 16
	spliced := append([]byte{}, data[:endOff]...)
	spliced = append(spliced, v2Section(0x41525458 /* "XTRA" */, []byte("future payload"))...)
	spliced = append(spliced, data[endOff:]...)
	h, err := ReadBinary(bytes.NewReader(spliced))
	if err != nil {
		t.Fatalf("unknown section should be skipped, got %v", err)
	}
	if !g.Equal(h) {
		t.Fatal("graph changed after skipping unknown section")
	}
}

func TestV2RejectsCorruptFiles(t *testing.T) {
	g := randomV2Graph(t, 11, 40, 100, true)
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, g); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	mutate := func(f func([]byte) []byte) []byte {
		return f(append([]byte{}, valid...))
	}
	cases := map[string][]byte{
		"flipped payload byte": mutate(func(b []byte) []byte {
			b[8+16] ^= 0x40 // first byte of META payload; CRC now mismatches
			return b
		}),
		"flipped checksum": mutate(func(b []byte) []byte {
			b[8+12] ^= 0x01 // META section CRC field
			return b
		}),
		"truncated section": mutate(func(b []byte) []byte {
			return b[:len(b)-20] // cut into the last sections
		}),
		"truncated header": mutate(func(b []byte) []byte {
			return b[:8+7] // cut inside the first section header
		}),
		"trailing garbage": mutate(func(b []byte) []byte {
			return append(b, 0xFF)
		}),
		"first section not META": v2Container(
			v2Section(secEDGE, nil),
		),
		"duplicate META": v2Container(
			v2Section(secMETA, metaPayload(3, 0, probEncQ16)),
			v2Section(secMETA, metaPayload(3, 0, probEncQ16)),
		),
		"bad varint in EDGE": v2Container(
			v2Section(secMETA, metaPayload(3, 1, probEncQ16)),
			v2Section(secEDGE, []byte{0x80}), // unterminated uvarint
		),
		"EDGE trailing bytes": v2Container(
			v2Section(secMETA, metaPayload(3, 1, probEncQ16)),
			v2Section(secEDGE, []byte{0, 0, 0}), // one edge plus a stray byte
		),
		"endpoint out of range": v2Container(
			v2Section(secMETA, metaPayload(3, 1, probEncQ16)),
			v2Section(secEDGE, binary.AppendUvarint(binary.AppendUvarint(nil, 0), 7)), // (0,8) with n=3
		),
		"impossible edge count": v2Container(
			v2Section(secMETA, metaPayload(2, 9, probEncQ16)),
		),
		"oversized node count": v2Container(
			v2Section(secMETA, metaPayload(MaxFileNodes+1, 0, probEncQ16)),
		),
		"unknown prob encoding": v2Container(
			v2Section(secMETA, metaPayload(3, 0, 7)),
		),
		"PROB before EDGE": v2Container(
			v2Section(secMETA, metaPayload(3, 1, probEncQ16)),
			v2Section(secPROB, []byte{0, 0}),
		),
		"PROB length mismatch": v2Container(
			v2Section(secMETA, metaPayload(3, 1, probEncQ16)),
			v2Section(secEDGE, []byte{0, 0}), // edge (0,1)
			v2Section(secPROB, []byte{0, 0, 0}),
		),
		"prob outside [0,1]": v2Container(
			v2Section(secMETA, metaPayload(3, 1, probEncFloat64)),
			v2Section(secEDGE, []byte{0, 0}),
			v2Section(secPROB, binary.LittleEndian.AppendUint64(nil, math.Float64bits(2.0))),
		),
		"missing PROB": v2Container(
			v2Section(secMETA, metaPayload(3, 1, probEncQ16)),
			v2Section(secEDGE, []byte{0, 0}),
			v2Section(secEND, nil),
		),
		"END with payload": v2Container(
			v2Section(secMETA, metaPayload(3, 0, probEncQ16)),
			v2Section(secEDGE, nil),
			v2Section(secPROB, nil),
			v2Section(secEND, []byte{1}),
		),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("want ErrBadFormat, got %v", err)
			}
		})
	}
}

func TestV2SmallerThanV1AndTSV(t *testing.T) {
	g := randomV2Graph(t, 12, 500, 2000, true)
	var tsv, v2 bytes.Buffer
	if err := WriteTSV(&tsv, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryV2(&v2, g); err != nil {
		t.Fatal(err)
	}
	if v1 := encodeV1(g); v2.Len() >= len(v1) {
		t.Fatalf("v2 (%d bytes) should beat v1 (%d bytes)", v2.Len(), len(v1))
	}
	if 3*v2.Len() >= tsv.Len() {
		t.Fatalf("v2 (%d bytes) should be at least 3x smaller than TSV (%d bytes)", v2.Len(), tsv.Len())
	}
}

func TestLoadFileAutoDetectsFormat(t *testing.T) {
	g := randomV2Graph(t, 13, 50, 120, true)
	dir := t.TempDir()
	paths := map[string]func(string) error{
		"g.tsv": func(p string) error { return SaveFile(p, g) },
		"g.v1":  func(p string) error { return os.WriteFile(p, encodeV1(g), 0o644) },
		"g.v2":  func(p string) error { return SaveBinaryV2File(p, g) },
	}
	for name, save := range paths {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(dir, name)
			if err := save(p); err != nil {
				t.Fatal(err)
			}
			fromFile, err := LoadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Equal(fromFile) {
				t.Fatal("LoadFile changed the graph")
			}
		})
	}
}

// forgedV2Files are v2 files whose frames declare sizes the bytes do not
// back: META claims 2^40 edges over 2^24 vertices (a count parseMeta
// admits), followed by an EDGE frame with a valid CRC over a 2-byte
// payload — 53 bytes in all — or by an EDGE frame that declares a 2^40-byte
// payload and ends. A reader that sizes its buffers from the declared
// counts asks for terabytes before reading anything.
func forgedV2Files() map[string][]byte {
	meta := v2Section(secMETA, metaPayload(MaxFileNodes, 1<<40, probEncQ16))
	hugeFrame := make([]byte, 16)
	binary.LittleEndian.PutUint32(hugeFrame[0:4], secEDGE)
	binary.LittleEndian.PutUint64(hugeFrame[4:12], 1<<40)
	return map[string][]byte{
		"edge count":     v2Container(meta, v2Section(secEDGE, []byte{0, 0})),
		"section length": v2Container(meta, hugeFrame, []byte{0, 0}),
	}
}

// TestV2RefusesForgedSizes holds the readers to the forged-size files:
// both must fail as ErrBadFormat without allocating what they declare,
// which would end the process with an out-of-memory fatal error.
func TestV2RefusesForgedSizes(t *testing.T) {
	files := forgedV2Files()
	if len(files["edge count"]) != 53 {
		t.Fatalf("edge-count file is %d bytes, want 53", len(files["edge count"]))
	}
	for name, data := range files {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("ReadBinary: want ErrBadFormat, got %v", err)
			}
			if _, err := ReadAuto(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("ReadAuto: want ErrBadFormat, got %v", err)
			}
		})
	}
}

// v2EdgeFile is a complete v2 file over n vertices whose EDGE section
// holds the given raw (du, dv) delta pairs and whose PROB column is all
// zero, so only the edge decoding can reject it.
func v2EdgeFile(n uint64, deltas ...[2]uint64) []byte {
	var stream []byte
	for _, d := range deltas {
		stream = binary.AppendUvarint(stream, d[0])
		stream = binary.AppendUvarint(stream, d[1])
	}
	return v2Container(
		v2Section(secMETA, metaPayload(n, uint64(len(deltas)), probEncQ16)),
		v2Section(secEDGE, stream),
		v2Section(secPROB, make([]byte, 2*len(deltas))),
		v2Section(secEND, nil),
	)
}

// TestV2RefusesOverflowingDeltas pins the delta bounds: deltas that wrap
// around uint64 would decode to out-of-order or reversed edges, which
// the format rules out, so both files must be refused.
func TestV2RefusesOverflowingDeltas(t *testing.T) {
	if g, err := ReadBinary(bytes.NewReader(v2EdgeFile(10, [2]uint64{5, 0}, [2]uint64{1, 1}))); err != nil || g.NumEdges() != 2 {
		t.Fatalf("control file (5,6),(6,8): got %v, %v", g, err)
	}
	cases := map[string][]byte{
		// (5,6), then du = 2-5 mod 2^64: the row goes backwards to (2,3).
		"row delta wraps": v2EdgeFile(10, [2]uint64{5, 0}, [2]uint64{1<<64 - 3, 0}),
		// (5, 5+1+(2^64-6)) wraps to (5,0).
		"column delta wraps": v2EdgeFile(10, [2]uint64{5, 1<<64 - 6}),
		// Same row: v = prevV+1+dv wraps below prevV.
		"same-row delta wraps": v2EdgeFile(10, [2]uint64{1, 2}, [2]uint64{0, 1<<64 - 2}),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if g, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("want ErrBadFormat, got graph %v, err %v", g, err)
			}
		})
	}
}

func TestQuantize16(t *testing.T) {
	for _, p := range []float64{0, 1, 0.5, 0.123456, 1.0 / 65535, 32767.0 / 65535} {
		q := Quantize16(p)
		if math.Abs(q-p) > 1.0/131070+1e-15 {
			t.Fatalf("Quantize16(%v) = %v drifted too far", p, q)
		}
		if Quantize16(q) != q {
			t.Fatalf("Quantize16 should be idempotent at %v", q)
		}
	}
}
