// Package nativecap keeps the API of the former native trace capturer for
// the frozen benchmark in perfbench/ only, until that benchmark is revised
// in its own declared change. Every capture runs the interpreter recorder
// (arch.RecordTrace) and Stats is always zero. Nothing else may import it.
package nativecap

import (
	"context"

	"repro/internal/arch"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/trace"
)

// Options is accepted for compatibility; Dir is ignored.
type Options struct {
	Dir string
}

// Stats counts native captures and fallbacks; with no native path every
// field stays zero.
type Stats struct {
	Native              int64
	FallbackNoToolchain int64
	FallbackBuildError  int64
	FallbackRunError    int64
	FallbackMismatch    int64
}

// Capturer records traces through the interpreter.
type Capturer struct{}

// New returns a Capturer; it never fails.
func New(Options) (*Capturer, error) { return &Capturer{}, nil }

// Capture records one execution trace of lp, bounded by stepLimit when it
// is positive.
func (*Capturer) Capture(ctx context.Context, _ *ir.Program, lp *interp.Program, stepLimit int64) (*trace.Recording, error) {
	return arch.RecordTrace(ctx, lp, stepLimit)
}

// Stats returns the zero Stats.
func (*Capturer) Stats() Stats { return Stats{} }

// Close does nothing.
func (*Capturer) Close() {}
