package testkit

import (
	"chameleon/internal/certify"
	"chameleon/internal/uncertain"
)

// Certificate and CheckCertificate forward to internal/certify for the
// end-to-end benchmark in bench/, which calls them by these names. They
// go when bench/ next changes and calls certify.Check itself.
type Certificate = certify.Certificate

// CheckCertificate is certify.Check.
func CheckCertificate(orig, pub *uncertain.Graph, k int, eps float64) (Certificate, error) {
	return certify.Check(orig, pub, k, eps)
}
