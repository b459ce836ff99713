package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// parseBench reads `go test -bench` output and returns one entry per
// benchmark name, in order of first appearance. The -GOMAXPROCS suffix is
// stripped from names. Under -count=N the entry keeps the repeat with the
// lowest ns/op (its iteration count and ReportMetric columns come along),
// and allocs_per_op is the highest seen in any repeat, so an allocation in
// one repeat is never hidden by a faster one. Lines that are not benchmark
// results are skipped.
func parseBench(r io.Reader) ([]entry, error) {
	var out []entry
	index := map[string]int{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		e := entry{Name: f[0]}
		if i := strings.LastIndexByte(e.Name, '-'); i > 0 {
			if _, err := strconv.Atoi(e.Name[i+1:]); err == nil {
				e.Name = e.Name[:i]
			}
		}
		var err error
		if e.Iterations, err = strconv.ParseInt(f[1], 10, 64); err != nil {
			return nil, fmt.Errorf("%s: iterations: %v", e.Name, err)
		}
		if e.NsPerOp, err = strconv.ParseFloat(f[2], 64); err != nil {
			return nil, fmt.Errorf("%s: ns/op: %v", e.Name, err)
		}
		// The remaining columns are value/unit pairs.
		for i := 4; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %v", e.Name, f[i+1], err)
			}
			switch f[i+1] {
			case "allocs/op":
				e.AllocsPerOp = int64(v)
			case "samples_to_target_rse":
				e.SamplesToTargetRSE = v
			case "bytes_on_disk":
				e.BytesOnDisk = int64(v)
			}
		}
		j, seen := index[e.Name]
		if !seen {
			index[e.Name] = len(out)
			out = append(out, e)
			continue
		}
		allocs := max(out[j].AllocsPerOp, e.AllocsPerOp)
		if e.NsPerOp < out[j].NsPerOp {
			out[j] = e
		}
		out[j].AllocsPerOp = allocs
	}
	return out, sc.Err()
}

// writeEntries writes entries in the BENCH_*.json layout: a JSON array
// with one object per line, so scripts can grep a benchmark's line and
// read a field off it.
func writeEntries(w io.Writer, es []entry) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("[\n")
	for i, e := range es {
		name, err := json.Marshal(e.Name)
		if err != nil {
			return err
		}
		fmt.Fprintf(bw, `  {"name": %s, "ns_per_op": %s, "allocs_per_op": %d, "iterations": %d`,
			name, strconv.FormatFloat(e.NsPerOp, 'f', -1, 64), e.AllocsPerOp, e.Iterations)
		if e.SamplesToTargetRSE != 0 {
			fmt.Fprintf(bw, `, "samples_to_target_rse": %s`, strconv.FormatFloat(e.SamplesToTargetRSE, 'f', -1, 64))
		}
		if e.BytesOnDisk != 0 {
			fmt.Fprintf(bw, `, "bytes_on_disk": %d`, e.BytesOnDisk)
		}
		sep := ","
		if i == len(es)-1 {
			sep = ""
		}
		fmt.Fprintf(bw, "}%s\n", sep)
	}
	bw.WriteString("]\n")
	return bw.Flush()
}
