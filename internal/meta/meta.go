// Package meta defines the per-packet offload metadata that rides alongside
// received data from the NIC up through the TCP stack to L5P software.
//
// The paper adds a `decrypted` bit (TLS) and a `crc_ok` bit (NVMe-TCP) to
// the Linux SKB; the stack takes care not to coalesce packets with
// different offload results (§4.3). Here the flags travel with each
// received chunk, and the reassembly layer never merges chunks whose flags
// differ.
package meta

import "strings"

// RxFlags are the per-packet offload verdict bits set by the NIC.
type RxFlags uint8

const (
	// TLSOffloaded marks payload bytes processed by the TLS receive engine
	// in sequence (the record parser advanced over them).
	TLSOffloaded RxFlags = 1 << iota
	// TLSDecrypted marks payload decrypted by the NIC.
	TLSDecrypted
	// TLSAuthOK is set when every TLS record ICV completed inside the
	// packet verified correctly.
	TLSAuthOK
	// NVMeOffloaded marks payload bytes the NVMe-TCP engine parsed in
	// sequence.
	NVMeOffloaded
	// NVMeCRCOK is set when every capsule data digest completed inside the
	// packet verified correctly.
	NVMeCRCOK
	// NVMePlaced marks capsule payload the NIC DMA-wrote directly into
	// block-layer buffers (the zero-copy path of Fig. 9).
	NVMePlaced
	// DPIScanned marks payload the DPI engine pattern-matched in sequence
	// (§7); the match results travel out of band through the match sink.
	DPIScanned
	// RxChecksumBad marks a packet whose IP or TCP checksum failed NIC
	// validation but was delivered anyway (the NIC reports the verdict and
	// never drops, like a device without checksum-drop): the stack must
	// validate in software, count the failure, and discard the packet
	// before any socket sees it.
	RxChecksumBad
)

var flagNames = []struct {
	bit  RxFlags
	name string
}{
	{TLSOffloaded, "tls-offloaded"},
	{TLSDecrypted, "tls-decrypted"},
	{TLSAuthOK, "tls-auth-ok"},
	{NVMeOffloaded, "nvme-offloaded"},
	{NVMeCRCOK, "nvme-crc-ok"},
	{NVMePlaced, "nvme-placed"},
	{DPIScanned, "dpi-scanned"},
	{RxChecksumBad, "csum-bad"},
}

// String renders the set flags for debugging.
func (f RxFlags) String() string {
	if f == 0 {
		return "none"
	}
	var parts []string
	for _, n := range flagNames {
		if f&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	return strings.Join(parts, "|")
}

// Has reports whether all bits in mask are set.
func (f RxFlags) Has(mask RxFlags) bool { return f&mask == mask }
