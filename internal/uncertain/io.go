package uncertain

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ErrBadFormat is returned for malformed graph input.
var ErrBadFormat = errors.New("uncertain: bad graph format")

// MaxFileNodes caps the node count accepted from a graph file; it guards
// the parser against allocating gigabytes for absurd headers in corrupt
// or hostile input. 16M vertices is an order of magnitude above the
// largest dataset in the paper.
const MaxFileNodes = 1 << 24

// WriteTSV serializes g in the plain text format used by the tools:
//
//	# comment lines allowed
//	<numNodes>
//	<u>\t<v>\t<p>
//	...
//
// Edges are written in sorted order for deterministic output.
func WriteTSV(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d\n", g.NumNodes()); err != nil {
		return err
	}
	for _, e := range g.SortedEdges() {
		if _, err := fmt.Fprintf(bw, "%d\t%d\t%s\n", e.U, e.V,
			strconv.FormatFloat(e.P, 'g', -1, 64)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTSV parses the format written by WriteTSV. Blank lines and lines
// starting with '#' are ignored. Fields may be separated by tabs or spaces.
func ReadTSV(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var g *Graph
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if g == nil {
			if len(fields) != 1 {
				return nil, fmt.Errorf("%w: line %d: want node count, got %q", ErrBadFormat, lineNo, line)
			}
			n, err := strconv.Atoi(fields[0])
			if err != nil || n < 0 || n > MaxFileNodes {
				return nil, fmt.Errorf("%w: line %d: bad node count %q", ErrBadFormat, lineNo, fields[0])
			}
			g = New(n)
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("%w: line %d: want 'u v p', got %q", ErrBadFormat, lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: bad node %q", ErrBadFormat, lineNo, fields[0])
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: bad node %q", ErrBadFormat, lineNo, fields[1])
		}
		p, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: bad probability %q", ErrBadFormat, lineNo, fields[2])
		}
		if err := g.AddEdge(NodeID(u), NodeID(v), p); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("%w: empty input", ErrBadFormat)
	}
	return g, nil
}

// SaveFile writes g to path in TSV format.
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTSV(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads an uncertain graph from path, auto-detecting the format:
// files starting with the binary magic load as a binary container (either
// the v1 triple format or the sectioned v2 format, dispatched on the
// version word), anything else parses as TSV. A v2 file builds its
// graph in bulk through FromEdges, without a per-edge AddEdge.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAuto(f)
}

// ReadAuto parses a graph from r with the same format auto-detection
// LoadFile applies to files: the binary magic selects the binary
// container (v1 or sectioned v2 by version word), anything else parses
// as TSV. It is the entry point for streamed inputs — uploads, pipes —
// where no file path exists to sniff.
func ReadAuto(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err == nil && len(head) == 4 &&
		binary.LittleEndian.Uint32(head) == binaryMagic {
		return ReadBinary(br)
	}
	return ReadTSV(br)
}
