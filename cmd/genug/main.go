// Command genug generates synthetic uncertain graphs: either one of the
// paper's scaled evaluation datasets by name, or a custom random topology.
//
// Usage:
//
//	genug -dataset dblp-s -seed 7 -o dblp.tsv
//	genug -topology ba -nodes 1000 -degree 3 -probs uniform -o g.tsv
//	genug -topology er -nodes 500 -edges 2000 -probs small -o g.tsv
//	genug -topology er -nodes 1000000 -edges 10000000 -format v2 -stream -o big.ug2
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"

	"chameleon/cmd/internal/runner"
	"chameleon/internal/gen"
	"chameleon/internal/uncertain"
)

func main() {
	var (
		dataset  = flag.String("dataset", "", "named dataset: dblp-s | brightkite-s | ppi-s (overrides topology flags)")
		topology = flag.String("topology", "ba", "random topology: ba | er | sbm")
		nodes    = flag.Int("nodes", 1000, "number of vertices")
		edges    = flag.Int("edges", 4000, "number of edges (er topology)")
		degree   = flag.Int("degree", 3, "edges per new vertex (ba topology)")
		blocks   = flag.Int("blocks", 4, "number of blocks (sbm topology)")
		pin      = flag.Float64("pin", 0.05, "intra-block edge rate (sbm)")
		pout     = flag.Float64("pout", 0.002, "inter-block edge rate (sbm)")
		probs    = flag.String("probs", "uniform", "probability profile: uniform | small | discrete")
		seed     = flag.Uint64("seed", 1, "random seed")
		out      = flag.String("o", "", "output file (default stdout)")
		format   = flag.String("format", "tsv", "output format: tsv | v2 (v2 = sectioned binary)")
		stream   = flag.Bool("stream", false, "stream straight to disk without materializing the graph (er topology, v2 format only)")
	)
	flag.Parse()

	err := run(config{
		dataset: *dataset, topology: *topology,
		nodes: *nodes, edges: *edges, degree: *degree, blocks: *blocks,
		pin: *pin, pout: *pout, probs: *probs, seed: *seed,
		out: *out, format: *format, stream: *stream,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "genug:", err)
		if errors.As(err, new(runner.UsageError)) {
			flag.Usage()
		}
	}
	os.Exit(runner.ExitCode(err))
}

type config struct {
	dataset, topology    string
	nodes, edges, degree int
	blocks               int
	pin, pout            float64
	probs                string
	seed                 uint64
	out                  string
	format               string
	stream               bool
}

func run(c config) error {
	if c.format != "tsv" && c.format != "v2" {
		return runner.Usagef("unknown format %q (want tsv or v2)", c.format)
	}

	if c.stream {
		// The streaming path writes v2 sections straight to the output,
		// skipping graph materialization entirely; it exists precisely for
		// graphs too big to hold as a *Graph.
		if c.dataset != "" || c.topology != "er" {
			return runner.Usagef("-stream supports only -topology er")
		}
		if c.format != "v2" {
			return runner.Usagef("-stream requires -format v2")
		}
		pa, err := probAssigner(c.probs)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewPCG(c.seed, 0xda7a5e7))
		w := os.Stdout
		if c.out != "" {
			f, err := os.Create(c.out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := gen.StreamErdosRenyi(w, c.nodes, c.edges, pa, rng); err != nil {
			return err
		}
		if c.out != "" {
			fmt.Fprintf(os.Stderr, "wrote %s: %d nodes, %d edges (streamed v2)\n", c.out, c.nodes, c.edges)
		}
		return nil
	}

	g, err := build(c)
	if err != nil {
		return err
	}
	if c.out == "" {
		if c.format == "v2" {
			return uncertain.WriteBinaryV2(os.Stdout, g)
		}
		return uncertain.WriteTSV(os.Stdout, g)
	}
	save := uncertain.SaveFile
	if c.format == "v2" {
		save = uncertain.SaveBinaryV2File
	}
	if err := save(c.out, g); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %d nodes, %d edges, mean p %.3f\n",
		c.out, g.NumNodes(), g.NumEdges(), g.MeanProb())
	return nil
}

func probAssigner(probs string) (gen.ProbAssigner, error) {
	switch probs {
	case "uniform":
		return gen.UniformProbs(0.05, 0.95), nil
	case "small":
		return gen.SmallProbs(0.29), nil
	case "discrete":
		return gen.DiscreteProbs(
			[]float64{0.13, 0.28, 0.46, 0.64, 0.80},
			[]float64{0.15, 0.23, 0.27, 0.22, 0.13},
		), nil
	default:
		return nil, runner.Usagef("unknown probability profile %q", probs)
	}
}

func build(c config) (*uncertain.Graph, error) {
	rng := rand.New(rand.NewPCG(c.seed, 0xda7a5e7))
	if c.dataset != "" {
		d, err := gen.DatasetByName(c.dataset)
		if err != nil {
			return nil, runner.UsageError{Err: fmt.Errorf("%w (known: %s)", err, strings.Join(datasetNames(), ", "))}
		}
		return d.Build(rng)
	}
	pa, err := probAssigner(c.probs)
	if err != nil {
		return nil, err
	}
	switch c.topology {
	case "ba":
		return gen.BarabasiAlbert(c.nodes, c.degree, pa, rng)
	case "er":
		return gen.ErdosRenyi(c.nodes, c.edges, pa, rng)
	case "sbm":
		return gen.SBM(c.nodes, c.blocks, c.pin, c.pout, pa, rng)
	default:
		return nil, runner.Usagef("unknown topology %q", c.topology)
	}
}

func datasetNames() []string {
	var names []string
	for _, d := range gen.Datasets() {
		names = append(names, d.Name)
	}
	return names
}
