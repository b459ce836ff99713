package chameleon

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func testGraph(t testing.TB) *Graph {
	t.Helper()
	g, err := GenerateDataset("dblp-s", 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func smallTestGraph(t testing.TB) *Graph {
	t.Helper()
	// Small heavy-tailed graph for fast anonymization tests.
	g := NewGraph(120)
	for i := 1; i < 120; i++ {
		// Preferential-ish: attach to i/2 and i-1.
		g.MustAddEdge(NodeID(i), NodeID(i/2), 0.6)
		if i > 1 && !g.HasEdge(NodeID(i), NodeID(i-1)) {
			g.MustAddEdge(NodeID(i), NodeID(i-1), 0.3)
		}
	}
	return g
}

func TestGenerateDatasetNames(t *testing.T) {
	names := DatasetNames()
	if len(names) != 3 {
		t.Fatalf("DatasetNames = %v", names)
	}
	for _, name := range names {
		g, err := GenerateDataset(name, 1)
		if err != nil {
			t.Fatalf("GenerateDataset(%s): %v", name, err)
		}
		if g.NumNodes() == 0 || g.NumEdges() == 0 {
			t.Fatalf("%s: empty graph", name)
		}
	}
	if _, err := GenerateDataset("bogus", 1); err == nil {
		t.Fatal("unknown dataset should error")
	}
}

func TestGenerateDatasetDeterministic(t *testing.T) {
	a, err := GenerateDataset("ppi-s", 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateDataset("ppi-s", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("same seed must generate the same dataset")
	}
}

func TestGraphIO(t *testing.T) {
	g := smallTestGraph(t)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("Write/Read round trip changed the graph")
	}
	path := filepath.Join(t.TempDir(), "g.tsv")
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	h2, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h2) {
		t.Fatal("Save/Load round trip changed the graph")
	}
}

func TestAnonymizeAllMethods(t *testing.T) {
	g := smallTestGraph(t)
	for _, m := range []Method{MethodRSME, MethodRS, MethodME, MethodRepAn} {
		m := m
		t.Run(string(m), func(t *testing.T) {
			res, err := Anonymize(g, Options{K: 5, Epsilon: 0.05, Method: m, Samples: 100, Seed: 9})
			if err != nil {
				t.Fatalf("Anonymize(%s): %v", m, err)
			}
			if res.Method != m {
				t.Fatalf("result method %s, want %s", res.Method, m)
			}
			if res.EpsilonTilde > 0.05 {
				t.Fatalf("eps~ = %v", res.EpsilonTilde)
			}
			if res.Graph == nil || res.Graph.NumNodes() != g.NumNodes() {
				t.Fatal("bad published graph")
			}
		})
	}
}

func TestAnonymizeDefaultsToRSME(t *testing.T) {
	g := smallTestGraph(t)
	res, err := Anonymize(g, Options{K: 4, Epsilon: 0.05, Samples: 80, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodRSME {
		t.Fatalf("default method = %s, want RSME", res.Method)
	}
}

func TestAnonymizeUnknownMethod(t *testing.T) {
	g := smallTestGraph(t)
	if _, err := Anonymize(g, Options{K: 4, Epsilon: 0.05, Method: "nope"}); err == nil {
		t.Fatal("unknown method should error")
	}
}

func TestAnonymizeInvalidParams(t *testing.T) {
	g := smallTestGraph(t)
	if _, err := Anonymize(g, Options{K: 0}); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := Anonymize(g, Options{K: g.NumNodes() * 2, Epsilon: 0.01}); err == nil {
		t.Fatal("k > |V| should error")
	}
}

func TestCheckPrivacy(t *testing.T) {
	g := smallTestGraph(t)
	res, err := Anonymize(g, Options{K: 5, Epsilon: 0.05, Samples: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CheckPrivacy(g, res.Graph, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.K != 5 {
		t.Fatalf("report k = %d", rep.K)
	}
	if rep.EpsilonTilde > 0.05 {
		t.Fatalf("published graph fails the privacy check: %v", rep.EpsilonTilde)
	}
	if _, err := CheckPrivacy(g, res.Graph, 0); err == nil {
		t.Fatal("k=0 should error")
	}
}

func TestEvaluateUtilityIdentical(t *testing.T) {
	g := smallTestGraph(t)
	rep, err := EvaluateUtility(g, g.Clone(), UtilityOptions{Samples: 200, MetricSamples: 5, Pairs: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReliabilityDiscrepancy != 0 || rep.AvgDegreeError != 0 {
		t.Fatalf("identical graphs should have zero error: %+v", rep)
	}
}

func TestEvaluateUtilityDetectsDamage(t *testing.T) {
	g := smallTestGraph(t)
	damaged := g.Clone()
	for i := 0; i < damaged.NumEdges(); i += 2 {
		if err := damaged.SetProb(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := EvaluateUtility(g, damaged, UtilityOptions{Samples: 300, MetricSamples: 5, Pairs: 1000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReliabilityDiscrepancy <= 0 {
		t.Fatal("halving the edges should cost reliability")
	}
	if rep.AvgDegreeError <= 0 {
		t.Fatal("halving the edges should change the average degree")
	}
}

func TestPairReliabilityFacade(t *testing.T) {
	g := NewGraph(3)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.4)
	r := PairReliability(g, 0, 2, 20000, 1)
	if math.Abs(r-0.2) > 0.02 {
		t.Fatalf("R(0,2) = %v, want ~0.2", r)
	}
}

func TestReliabilityFromFacade(t *testing.T) {
	g := NewGraph(3)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.4)
	vec := ReliabilityFrom(g, 0, 20000, 1)
	if vec[0] != 1 {
		t.Fatalf("self reliability = %v", vec[0])
	}
	if math.Abs(vec[2]-0.2) > 0.02 {
		t.Fatalf("vec[2] = %v, want ~0.2", vec[2])
	}
}

func TestEdgeRelevanceFacade(t *testing.T) {
	// Bridge beats redundant edge.
	g := NewGraph(4)
	g.MustAddEdge(0, 1, 0.8)
	g.MustAddEdge(1, 2, 0.8)
	g.MustAddEdge(0, 2, 0.8)
	g.MustAddEdge(2, 3, 0.8)
	rel := EdgeRelevance(g, 3000, 2)
	if rel[3] <= rel[0] {
		t.Fatalf("bridge relevance %v should beat triangle edge %v", rel[3], rel[0])
	}
}

func TestRepresentativeFacade(t *testing.T) {
	g := testGraph(t)
	rep := Representative(g)
	if rep.NumNodes() != g.NumNodes() {
		t.Fatal("representative vertex set mismatch")
	}
	for i := 0; i < rep.NumEdges(); i++ {
		if rep.Edge(i).P != 1 {
			t.Fatal("representative must be deterministic")
		}
	}
}

func TestSimulateAttackFacade(t *testing.T) {
	g := smallTestGraph(t)
	res, err := Anonymize(g, Options{K: 5, Epsilon: 0.05, Samples: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	before, err := SimulateAttack(g, g, 5)
	if err != nil {
		t.Fatal(err)
	}
	after, err := SimulateAttack(g, res.Graph, 5)
	if err != nil {
		t.Fatal(err)
	}
	if after.MeanPosterior >= before.MeanPosterior {
		t.Fatalf("attack should weaken after anonymization: %v -> %v",
			before.MeanPosterior, after.MeanPosterior)
	}
	if after.MeanRank <= before.MeanRank {
		t.Fatalf("target rank should worsen for the adversary: %v -> %v",
			before.MeanRank, after.MeanRank)
	}
	if _, err := SimulateAttack(g, res.Graph, 0); err == nil {
		t.Fatal("k=0 should error")
	}
}

func TestReliabilityKNNFacade(t *testing.T) {
	g := NewGraph(5)
	g.MustAddEdge(0, 1, 0.9)
	g.MustAddEdge(1, 2, 0.9)
	g.MustAddEdge(2, 3, 0.9)
	nbrs, err := ReliabilityKNN(g, 0, 2, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) != 2 || nbrs[0] != 1 || nbrs[1] != 2 {
		t.Fatalf("kNN = %v, want [1 2]", nbrs)
	}
	if _, err := ReliabilityKNN(g, 99, 2, 10, 1); err == nil {
		t.Fatal("bad source should error")
	}
}

func TestKNNPreservationFacade(t *testing.T) {
	g := smallTestGraph(t)
	score, err := KNNPreservation(g, g.Clone(), 5, 8, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	if score != 1 {
		t.Fatalf("identical graphs: score = %v, want 1", score)
	}
	if _, err := KNNPreservation(g, NewGraph(3), 5, 8, 50, 2); err == nil {
		t.Fatal("size mismatch should error")
	}
}

func TestSaveGraphBinaryAutoLoad(t *testing.T) {
	g := smallTestGraph(t)
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := SaveGraphBinary(path, g); err != nil {
		t.Fatal(err)
	}
	h, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("binary save + auto-detect load changed the graph")
	}
	// The file is the sectioned v2 container: magic, then version word 2.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 8 || string(data[:4]) != "GRGU" || binary.LittleEndian.Uint32(data[4:8]) != 2 {
		t.Fatalf("SaveGraphBinary header = % x, want magic GRGU + version 2", data[:min(8, len(data))])
	}
}
