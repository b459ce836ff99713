package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestEmit(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   string
		want []entry
		// line, when set, is the exact line the first entry must be
		// written as: scripts grep and sed these lines.
		line    string
		wantErr bool
	}{
		{
			name: "benchmem",
			in: `goos: linux
goarch: amd64
pkg: chameleon
cpu: Intel(R) Xeon(R) CPU @ 2.20GHz
BenchmarkObsOverheadAnonymize/off-2         	      70	  16241506 ns/op	 5063421 B/op	   18545 allocs/op
BenchmarkObsOverheadAnonymize/on-2          	      78	  15791802 ns/op	 5071266 B/op	   18551 allocs/op
PASS
ok  	chameleon	4.512s
`,
			want: []entry{
				{Name: "BenchmarkObsOverheadAnonymize/off", NsPerOp: 16241506, AllocsPerOp: 18545, Iterations: 70},
				{Name: "BenchmarkObsOverheadAnonymize/on", NsPerOp: 15791802, AllocsPerOp: 18551, Iterations: 78},
			},
			line: `  {"name": "BenchmarkObsOverheadAnonymize/off", "ns_per_op": 16241506, "allocs_per_op": 18545, "iterations": 70},`,
		},
		{
			name: "no benchmem, ReportMetric samples",
			in: `BenchmarkMCSampleEfficiency/fixed-2         	       2	  23266114 ns/op	      3661 samples_to_target_rse
BenchmarkMCSampleEfficiency/adaptive-crn-2  	       2	   6580047 ns/op	       256.0 samples_to_target_rse
`,
			want: []entry{
				{Name: "BenchmarkMCSampleEfficiency/fixed", NsPerOp: 23266114, Iterations: 2, SamplesToTargetRSE: 3661},
				{Name: "BenchmarkMCSampleEfficiency/adaptive-crn", NsPerOp: 6580047, Iterations: 2, SamplesToTargetRSE: 256},
			},
			line: `  {"name": "BenchmarkMCSampleEfficiency/fixed", "ns_per_op": 23266114, "allocs_per_op": 0, "iterations": 2, "samples_to_target_rse": 3661},`,
		},
		{
			name: "benchmem with ReportMetric bytes between",
			in: `BenchmarkFormatDecode/tsv-2   	      20	  61143154 ns/op	   3015802 bytes_on_disk	24040264 B/op	  293826 allocs/op
BenchmarkFormatDecode/v2-csr  	      43	  26511892.5 ns/op	    492664 bytes_on_disk	 9000000 B/op	   93835 allocs/op
`,
			want: []entry{
				{Name: "BenchmarkFormatDecode/tsv", NsPerOp: 61143154, AllocsPerOp: 293826, Iterations: 20, BytesOnDisk: 3015802},
				{Name: "BenchmarkFormatDecode/v2-csr", NsPerOp: 26511892.5, AllocsPerOp: 93835, Iterations: 43, BytesOnDisk: 492664},
			},
			line: `  {"name": "BenchmarkFormatDecode/tsv", "ns_per_op": 61143154, "allocs_per_op": 293826, "iterations": 20, "bytes_on_disk": 3015802},`,
		},
		{
			name: "count=3 keeps the fastest repeat and the most allocations",
			in: `BenchmarkEdgeRelevance-2   	     100	  12000 ns/op	  512 B/op	       3 allocs/op
BenchmarkAdaptiveChunkLoop-2   	  5000	  2100 ns/op	    0 B/op	       0 allocs/op
BenchmarkEdgeRelevance-2   	     120	  11000 ns/op	  512 B/op	       2 allocs/op
BenchmarkAdaptiveChunkLoop-2   	  5200	  2000 ns/op	    0 B/op	       0 allocs/op
BenchmarkEdgeRelevance-2   	     110	  11500 ns/op	  512 B/op	       2 allocs/op
BenchmarkAdaptiveChunkLoop-2   	  5100	  2050 ns/op	    0 B/op	       0 allocs/op
`,
			want: []entry{
				{Name: "BenchmarkEdgeRelevance", NsPerOp: 11000, AllocsPerOp: 3, Iterations: 120},
				{Name: "BenchmarkAdaptiveChunkLoop", NsPerOp: 2000, AllocsPerOp: 0, Iterations: 5200},
			},
			line: `  {"name": "BenchmarkEdgeRelevance", "ns_per_op": 11000, "allocs_per_op": 3, "iterations": 120},`,
		},
		{
			name: "no results",
			in:   "PASS\nok  \tchameleon\t0.01s\n",
			want: nil,
		},
		{
			name:    "malformed column",
			in:      "BenchmarkX-2 10 100 ns/op abc allocs/op\n",
			wantErr: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseBench(strings.NewReader(tc.in))
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if tc.wantErr {
				return
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parsed %+v\nwant    %+v", got, tc.want)
			}
			var buf bytes.Buffer
			if err := writeEntries(&buf, got); err != nil {
				t.Fatal(err)
			}
			var back []entry
			if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
				t.Fatalf("emitted invalid JSON: %v\n%s", err, buf.String())
			}
			if len(back) != len(tc.want) || (len(back) > 0 && !reflect.DeepEqual(back, tc.want)) {
				t.Fatalf("round trip read %+v, want %+v", back, tc.want)
			}
			if tc.line != "" {
				if lines := strings.Split(buf.String(), "\n"); lines[1] != tc.line {
					t.Fatalf("first entry line\n%s\nwant\n%s", lines[1], tc.line)
				}
			}
		})
	}
}
