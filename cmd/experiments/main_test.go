package main

import (
	"errors"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"

	"chameleon/cmd/internal/runner"
	"chameleon/internal/exp"
)

// TestDocListsArtifacts: the package comment lists every -run value
// exactly as the -run help prints it, in table order.
func TestDocListsArtifacts(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	doc := f.Doc.Text()
	at := 0
	for _, a := range artifacts {
		i := strings.Index(doc[at:], "\t"+helpLine(a)+"\n")
		if i < 0 {
			t.Fatalf("package comment does not list %q (after the previous artifact) as\n\t%s", a.name, helpLine(a))
		}
		at += i
		if !strings.Contains(runHelp(), "\n  "+helpLine(a)) {
			t.Errorf("-run help does not list %q", a.name)
		}
	}
}

func TestSelectArtifacts(t *testing.T) {
	want, err := selectArtifacts("all")
	if err != nil || len(want) != len(artifacts) {
		t.Fatalf("all selected %d artifacts (err %v), want %d", len(want), err, len(artifacts))
	}
	want, err = selectArtifacts(" fig4 ,sweep")
	if err != nil || len(want) != 2 || !want["fig4"] || !want["sweep"] {
		t.Fatalf("fig4,sweep selected %v (err %v)", want, err)
	}
	for _, bad := range []string{"fig08", "", "fig8,", "All"} {
		if _, err := selectArtifacts(bad); !errors.As(err, new(runner.UsageError)) {
			t.Errorf("-run %q: err = %v, want a usage error", bad, err)
		}
	}
}

// TestSweepMethods: one sweep serves every selected artifact, over only
// the methods they read.
func TestSweepMethods(t *testing.T) {
	for _, tc := range []struct {
		run  string
		want []string
	}{
		{"tableII,attack,ablations", nil},
		{"fig4", []string{"RSME", "Rep-An"}},
		{"fig4,fig8", exp.Methods},
		{"sweep", exp.Methods},
		{"all", exp.Methods},
	} {
		want, err := selectArtifacts(tc.run)
		if err != nil {
			t.Fatal(err)
		}
		if got := sweepMethods(want); !slices.Equal(got, tc.want) {
			t.Errorf("-run %s sweeps %v, want %v", tc.run, got, tc.want)
		}
	}
}
