// Package repro is a from-scratch Go reproduction of "Autonomous NIC
// Offloads" (Pismenny et al., ASPLOS 2021): the offload architecture that
// accelerates layer-5 protocols (TLS, NVMe-TCP) on the NIC without
// migrating the TCP/IP stack into hardware.
//
// See README.md for the architecture overview, DESIGN.md for the system
// inventory and per-experiment index, and EXPERIMENTS.md for the
// paper-versus-measured record. cmd/experiments regenerates every table
// and figure of the paper's evaluation:
//
//	go run ./cmd/experiments
package repro
