// Package repro is humnet: a Go reproduction of "Unveiling and Engaging
// with the Humans of Networking Research" (HotNets '25).
//
// The paper is a methods/position paper with no system of its own, so this
// repository builds the toolkit its argument implies (see DESIGN.md for the
// substitution table): qualitative-methods engines (participatory action
// research, ethnography, positionality, qualitative coding, surveys),
// networking substrates for each of its case studies (an AS-level BGP
// simulator with Gao–Rexford policies, an IXP fabric with peering
// regulation, a community-network mesh simulator), and ten experiments
// (E1–E10) that reproduce the shape of every empirical claim the paper
// makes. Every experiment is a scenario in internal/experiment's registry:
// cmd/reportgen renders their rows, BenchmarkScenario in bench_test.go
// times each one, and EXPERIMENTS.md records paper-claim versus measured
// shape.
package repro
