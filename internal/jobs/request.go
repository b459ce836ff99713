// Package jobs is the anonymization job plane: a spool-backed store of
// submitted (k, ε)-obfuscation jobs, a concurrent scheduler with
// admission control and checkpoint-backed crash recovery, and the HTTP
// handlers cmd/chameleond mounts next to /metrics and /query. Every job
// is durable — its input graph, parameter echo, state transitions and
// σ-search checkpoints all live under one spool directory — so a daemon
// killed mid-search and restarted on the same spool resumes its
// in-flight jobs bit-identically to uninterrupted runs.
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"

	"chameleon/internal/core"
	"chameleon/internal/uncertain"
)

// DefaultMaxUploadBytes bounds a multipart submission body (spec plus
// graph upload) when Config.MaxUploadBytes is zero: 256 MiB holds a v2
// container well past the paper's largest dataset.
const DefaultMaxUploadBytes = 256 << 20

// Spec is the client-supplied parameterization of one anonymization job.
// It travels as JSON — either the whole request body, or the "spec" part
// of a multipart submission whose "graph" part uploads the input.
type Spec struct {
	// K is the obfuscation level (required, >= 2).
	K int `json:"k"`
	// Epsilon is the tolerated under-obfuscated fraction, in [0, 1).
	Epsilon float64 `json:"eps"`
	// Method is RSME (default), RS, ME or Rep-An.
	Method string `json:"method,omitempty"`
	// Samples is the fixed Monte Carlo budget (0 = engine default).
	Samples int `json:"samples,omitempty"`
	// SamplingMode is independent (default), antithetic, stratified or
	// coupled.
	SamplingMode string `json:"sampling_mode,omitempty"`
	// TargetRSE, when positive, switches to adaptive sequential stopping.
	TargetRSE float64 `json:"target_rse,omitempty"`
	// MaxSamples caps adaptive sampling (requires TargetRSE).
	MaxSamples int `json:"max_samples,omitempty"`
	// Seed makes the job reproducible; the same spec and graph always
	// publish the same bytes.
	Seed uint64 `json:"seed,omitempty"`
	// GraphPath names a server-side input file (TSV, v1 or v2 binary,
	// auto-detected). JSON submissions require it; multipart submissions
	// upload the graph instead and must leave it empty.
	GraphPath string `json:"graph_path,omitempty"`
}

// BadRequestError marks a submission the client got wrong (malformed
// body, invalid parameters, undecodable graph); the HTTP layer maps it
// to 400 where anything else would be a 500. The underlying cause (when
// one exists) stays on the unwrap chain, so errors.As can still find
// transport-level errors like http.MaxBytesError behind it.
type BadRequestError struct {
	msg   string
	cause error
}

func (e *BadRequestError) Error() string { return e.msg }
func (e *BadRequestError) Unwrap() error { return e.cause }

func badRequestf(format string, args ...any) error {
	return &BadRequestError{msg: fmt.Sprintf(format, args...)}
}

// badRequestWrap is badRequestf with the cause kept unwrappable.
func badRequestWrap(cause error, format string, args ...any) error {
	return &BadRequestError{msg: fmt.Sprintf(format, args...), cause: cause}
}

// IsBadRequest reports whether err (or anything it wraps) marks a
// client-side submission error.
func IsBadRequest(err error) bool {
	var bre *BadRequestError
	return errors.As(err, &bre)
}

// Validate checks the parameters that are knowable without the graph in
// hand, with core's rules (graph-dependent checks — k <= |V|, a nonempty
// edge set — happen at admission, once the input is decoded).
func (s *Spec) Validate() error {
	_, err := s.params()
	return err
}

// params maps the spec onto the search parameterization and checks it.
// Every rejection is a BadRequestError wrapping core's reason.
func (s *Spec) params() (core.Params, error) {
	variant, err := core.ParseVariant(s.Method)
	if err != nil {
		return core.Params{}, badRequestWrap(err, "jobs: %v", err)
	}
	mode, err := uncertain.ParseSamplingMode(s.SamplingMode)
	if err != nil {
		return core.Params{}, badRequestWrap(err, "jobs: %v", err)
	}
	p := core.Params{
		K:            s.K,
		Epsilon:      s.Epsilon,
		Variant:      variant,
		Samples:      s.Samples,
		SamplingMode: mode,
		TargetRSE:    s.TargetRSE,
		MaxSamples:   s.MaxSamples,
		Seed:         s.Seed,
	}
	if err := p.Check(); err != nil {
		return core.Params{}, badRequestWrap(err, "jobs: %v", err)
	}
	return p, nil
}

// ParseSubmission decodes one job submission. contentType routes the
// body: application/json bodies are a bare Spec naming a server-side
// GraphPath; multipart/form-data bodies carry a "spec" JSON part and a
// "graph" file part (TSV, v1 or v2 binary, auto-detected) and return the
// decoded graph. The spec is validated either way; a non-nil error means
// the submission must not be admitted. Malformed or truncated input of
// any kind returns an error, never panics — the decoder is fuzzed on
// that contract (FuzzJobRequest).
func ParseSubmission(contentType string, body io.Reader) (*Spec, *uncertain.Graph, error) {
	mediaType, mtParams, err := mime.ParseMediaType(contentType)
	if err != nil {
		return nil, nil, badRequestf("jobs: bad content type %q: %v", contentType, err)
	}
	switch {
	case mediaType == "application/json":
		spec, err := decodeSpec(body)
		if err != nil {
			return nil, nil, err
		}
		if spec.GraphPath == "" {
			return nil, nil, badRequestf("jobs: JSON submissions must name a server-side graph_path (or upload the graph via multipart)")
		}
		return spec, nil, nil
	case mediaType == "multipart/form-data":
		boundary := mtParams["boundary"]
		if boundary == "" {
			return nil, nil, badRequestf("jobs: multipart submission without a boundary")
		}
		return parseMultipart(multipart.NewReader(body, boundary))
	default:
		return nil, nil, badRequestf("jobs: unsupported content type %q (use application/json or multipart/form-data)", mediaType)
	}
}

// decodeSpec parses and validates a Spec JSON document.
func decodeSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	spec := new(Spec)
	if err := dec.Decode(spec); err != nil {
		return nil, badRequestWrap(err, "jobs: bad spec JSON: %v", err)
	}
	// A second document after the spec is a malformed request, not
	// ignorable garbage.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, badRequestf("jobs: trailing data after the spec JSON")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// parseMultipart walks the submission's parts. Order is free, but both
// "spec" and "graph" must appear exactly once.
func parseMultipart(mr *multipart.Reader) (*Spec, *uncertain.Graph, error) {
	var spec *Spec
	var g *uncertain.Graph
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, badRequestWrap(err, "jobs: bad multipart body: %v", err)
		}
		name := part.FormName()
		switch name {
		case "spec":
			if spec != nil {
				part.Close()
				return nil, nil, badRequestf("jobs: duplicate spec part")
			}
			spec, err = decodeSpec(part)
		case "graph":
			if g != nil {
				part.Close()
				return nil, nil, badRequestf("jobs: duplicate graph part")
			}
			g, err = uncertain.ReadAuto(part)
			if err != nil {
				err = badRequestWrap(err, "jobs: undecodable graph upload: %v", err)
			}
		default:
			err = badRequestf("jobs: unknown multipart part %q", name)
		}
		part.Close()
		if err != nil {
			return nil, nil, err
		}
	}
	if spec == nil {
		return nil, nil, badRequestf("jobs: multipart submission missing the spec part")
	}
	if g == nil {
		return nil, nil, badRequestf("jobs: multipart submission missing the graph part")
	}
	if spec.GraphPath != "" {
		return nil, nil, badRequestf("jobs: graph_path and a graph upload are mutually exclusive")
	}
	return spec, g, nil
}
