package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"

	"chameleon/internal/gen"
	"chameleon/internal/uncertain"
)

// workers caps every parallel section of a workload: the load on the
// machine comes from one process using at most two threads or callers.
const workers = 2

// workload is one set of inputs and the operations the benchmark runs on
// them.
type workload struct {
	name string
	// why is the reason the workload exists, printed in the report.
	why string
	// inputs lists the graphs to generate.
	inputs []graphSpec
	params params
	// run executes one round in the child process.
	run func(e *childEnv) (*roundResult, error)
}

// sizes are the input sizes of the four workloads. The smoke test runs
// them at toy sizes; the benchmark always uses fullSizes.
type sizes struct {
	precomputeNodes int // anon-precompute graph
	searchNodes     int // anon-search graph
	jobNodes        int // each jobs-burst graph
	jobs            int // jobs per burst
	queryNodes      int // query-mix graph
	queryWorlds     int // query-mix Monte Carlo worlds
}

var fullSizes = sizes{
	precomputeNodes: 12000,
	searchNodes:     3600,
	jobNodes:        1800,
	jobs:            12,
	queryNodes:      2000,
	queryWorlds:     512,
}

// graphSpec describes one generated Barabási–Albert input.
type graphSpec struct {
	name   string
	nodes  int
	degree int
	// dblp selects the dblp-s probability profile; otherwise the
	// brightkite-s one.
	dblp bool
	// stream separates the random streams of the inputs of one seed.
	stream uint64
}

// params configures a workload's operations. It travels to the child in
// the manifest, so the child runs exactly what the parent generated for.
type params struct {
	Method   string  `json:"method,omitempty"`
	K        int     `json:"k,omitempty"`
	Eps      float64 `json:"eps,omitempty"`
	Samples  int     `json:"samples,omitempty"`
	Attempts int     `json:"attempts,omitempty"`
	// Seed drives the anonymization or query sampling.
	Seed uint64 `json:"seed"`
	// Worlds is the query engine's Monte Carlo budget.
	Worlds int `json:"worlds,omitempty"`
	// CentralitySamples is the query engine's betweenness precompute
	// budget.
	CentralitySamples int `json:"centrality_samples,omitempty"`
	// KNN is the answer-set size of knn queries.
	KNN int `json:"knn,omitempty"`
}

func workloads(sz sizes) []*workload {
	jobInputs := make([]graphSpec, sz.jobs)
	for i := range jobInputs {
		jobInputs[i] = graphSpec{name: fmt.Sprintf("job%02d", i), nodes: sz.jobNodes, degree: 2, stream: 0xb00 + uint64(i)}
	}
	return []*workload{
		{
			name:   "anon-precompute",
			why:    "RSME on a 12k-node dblp-shaped graph: the O(n^2) uniqueness plus edge relevance are most of each run, which ends in 3 GenObf calls",
			inputs: []graphSpec{{name: "dblp", nodes: sz.precomputeNodes, degree: 3, dblp: true, stream: 0xa11}},
			params: params{Method: "RSME", K: 25, Eps: 0.005, Samples: 1000, Seed: 7},
			run:    runAnon,
		},
		{
			name:   "anon-search",
			why:    "ME on a 3.6k-node brightkite-shaped graph: no edge relevance and small uniqueness, so 90 GenObf attempts are most of each run",
			inputs: []graphSpec{{name: "brightkite", nodes: sz.searchNodes, degree: 2, stream: 0xa12}},
			params: params{Method: "ME", K: 40, Eps: 0.01, Attempts: 30, Seed: 7},
			run:    runAnon,
		},
		{
			name:   "jobs-burst",
			why:    "12 RSME jobs submitted at once to a jobs.Manager: the write path, with spool files, a checkpoint per GenObf call and v2 results",
			inputs: jobInputs,
			params: params{Method: "RSME", K: 20, Eps: 0.01, Samples: 1000, Seed: 7},
			run:    runJobs,
		},
		{
			name:   "query-mix",
			why:    "closed loop of 2 callers on a query.Engine: the read path, label-cache lookups and the knn kernel, no anonymization",
			inputs: []graphSpec{{name: "dblp", nodes: sz.queryNodes, degree: 3, dblp: true, stream: 0xc11}},
			params: params{Seed: 11, Worlds: sz.queryWorlds, CentralitySamples: 8, KNN: 8},
			run:    runQuery,
		},
	}
}

func workloadByName(name string, sz sizes) (*workload, error) {
	for _, w := range workloads(sz) {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// dblpProbs is the dblp-s probability profile of internal/gen: a few
// discrete predictor outputs with mean ~0.46.
func dblpProbs() gen.ProbAssigner {
	return gen.DiscreteProbs(
		[]float64{0.13, 0.28, 0.46, 0.64, 0.80},
		[]float64{0.15, 0.23, 0.27, 0.22, 0.13},
	)
}

// input is one generated graph file.
type input struct {
	Name   string `json:"name"`
	Path   string `json:"path"`
	Nodes  int    `json:"nodes"`
	Edges  int    `json:"edges"`
	SHA256 string `json:"sha256"`
}

// manifest is what the parent hands every child of a run: the workload,
// its parameters and its input files.
type manifest struct {
	Workload string  `json:"workload"`
	Params   params  `json:"params"`
	Inputs   []input `json:"inputs"`
}

const manifestFile = "manifest.json"

// writeInputs generates the workload's inputs from seed as v2 files in
// dir and writes the manifest next to them. The program under test only
// ever sees these files.
func writeInputs(dir string, w *workload, seed uint64) (*manifest, error) {
	m := &manifest{Workload: w.name, Params: w.params}
	for _, s := range w.inputs {
		probs := gen.SmallProbs(0.29) // brightkite-s
		if s.dblp {
			probs = dblpProbs()
		}
		g, err := gen.BarabasiAlbert(s.nodes, s.degree, probs, rand.New(rand.NewPCG(seed, s.stream)))
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", s.name, err)
		}
		path := filepath.Join(dir, s.name+".ug2")
		if err := uncertain.SaveBinaryV2File(path, g); err != nil {
			return nil, fmt.Errorf("writing %s: %w", s.name, err)
		}
		sum, err := fileSHA256(path)
		if err != nil {
			return nil, err
		}
		m.Inputs = append(m.Inputs, input{Name: s.name, Path: path, Nodes: g.NumNodes(), Edges: g.NumEdges(), SHA256: sum})
	}
	raw, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return m, os.WriteFile(filepath.Join(dir, manifestFile), raw, 0o644)
}

func readManifest(dir string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("reading manifest: %w", err)
	}
	return &m, nil
}

func fileSHA256(path string) (string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return digest(raw), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// loadGraph decodes one input or output file.
func loadGraph(path string) (*uncertain.Graph, error) {
	g, err := uncertain.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return g, nil
}
