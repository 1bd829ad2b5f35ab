// Package repro is a from-scratch Go reproduction of "CLIP:
// Cluster-Level Intelligent Power Coordination for Power-Bounded
// Systems" (Zou, Allen, Davis, Feng, Ge — IEEE CLUSTER 2017).
//
// The paper's scheduler runs on a physical 8-node Haswell cluster and
// actuates power through Intel RAPL and thread affinity. This
// repository substitutes a deterministic machine model (internal/hw,
// internal/power, internal/sim) that reproduces the same decision
// surface, and implements the complete CLIP stack on top of it: smart
// profiling (internal/profile), scalability classification
// (internal/classify), inflection-point regression and piecewise
// performance prediction (internal/mlr, internal/perfmodel),
// node-level configuration recommendation (internal/recommend),
// cluster-level power coordination (internal/coordinator), and the
// CLIP façade (internal/core), plus the paper's comparison baselines
// (internal/baseline) and an experiment harness that regenerates every
// table and figure (internal/bench).
//
// The stack is safe for concurrent use: a single core.CLIP may be
// shared across goroutines, and several may share one knowledge table
// per node spec — profile, predictor and node-configuration answers per
// application, beside each instance's own decision per application and
// bound — each entry filled once under its own lock so concurrent
// misses share one pass, and Schedule returns a deep clone of the cached
// decision so callers may mutate the returned plan. The bench harness
// exploits this to run experiments and their inner sweeps from a
// bounded worker pool (clipbench -parallel) while emitting
// byte-identical reports to a serial run.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// substitution rationale, and EXPERIMENTS.md for paper-vs-measured
// results.
package repro
