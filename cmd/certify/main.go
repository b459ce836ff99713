// Command certify independently re-verifies the (k, ε)-obfuscation
// guarantee of a published uncertain graph (Definition 3 of the paper).
// Unlike ugstat's privacy check, which calls the production
// internal/privacy code, certify goes through internal/certify, which
// shares no code with it: expected degrees by direct edge scan, degree
// distributions by divide-and-conquer convolution, posterior entropies by
// explicit normalization. A graph that passes both checks is certified by
// two algorithmically independent implementations.
//
// Usage:
//
//	certify -orig original.tsv -pub published.tsv -k 20 -eps 0.01
//
// Exit status 0 when the certificate holds, 1 when the published graph
// fails the claimed guarantee (or on any other error).
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"text/tabwriter"

	"chameleon"
	"chameleon/cmd/internal/runner"
	"chameleon/internal/certify"
)

func main() {
	var (
		origPath = flag.String("orig", "", "original uncertain graph (TSV or binary)")
		pubPath  = flag.String("pub", "", "published graph whose guarantee to certify")
		k        = flag.Int("k", 20, "claimed obfuscation level")
		eps      = flag.Float64("eps", 0.01, "claimed tolerance ε")
	)
	flag.Parse()

	err := run(os.Stdout, *origPath, *pubPath, *k, *eps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "certify:", err)
		if errors.As(err, new(runner.UsageError)) {
			flag.Usage()
		}
	}
	os.Exit(runner.ExitCode(err))
}

// errNotCertified signals a sound run whose verdict is negative.
var errNotCertified = errors.New("certificate check FAILED")

func run(out *os.File, origPath, pubPath string, k int, eps float64) error {
	if origPath == "" || pubPath == "" {
		return runner.Usagef("-orig and -pub are required")
	}
	orig, err := chameleon.LoadGraph(origPath)
	if err != nil {
		return err
	}
	pub, err := chameleon.LoadGraph(pubPath)
	if err != nil {
		return err
	}
	cert, err := certify.Check(orig, pub, k, eps)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "claim:\t(k=%d, eps=%g)-obfuscation of %s by %s\n", k, eps, origPath, pubPath)
	fmt.Fprintf(tw, "vertices:\t%d\n", cert.Vertices)
	fmt.Fprintf(tw, "non-obfuscated:\t%d\n", cert.NonObfuscated)
	fmt.Fprintf(tw, "eps~:\t%.6f\n", cert.EpsilonTilde)
	fmt.Fprintf(tw, "min posterior entropy:\t%.4f bits (threshold %.4f)\n", cert.MinEntropy, math.Log2(float64(k)))
	if cert.Boundary > 0 {
		fmt.Fprintf(tw, "WARNING:\t%d vertices within %g bits of the threshold\n", cert.Boundary, certify.EntropyTolerance)
	}
	if cert.Valid {
		fmt.Fprintf(tw, "verdict:\tCERTIFIED\n")
	} else {
		fmt.Fprintf(tw, "verdict:\tNOT CERTIFIED (eps~ %.6f > eps %g)\n", cert.EpsilonTilde, eps)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if !cert.Valid {
		return errNotCertified
	}
	return nil
}
