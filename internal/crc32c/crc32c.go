// Package crc32c computes the CRC32C (Castagnoli) checksum incrementally.
//
// NVMe-TCP protects capsule headers and data with CRC32C digests
// (RFC 3385); the NIC offload computes and verifies them as packets stream
// through the device (§5.1 of the paper). What is modeled is the engine's
// constant-size state — the running CRC is all of it, which is why Update
// takes and returns a plain uint32 and can resume at any byte boundary
// (§3.2) — and the cost, which callers charge to the cycles ledger. What
// merely executes is the arithmetic: Update delegates to hash/crc32's
// Castagnoli table, which the standard library runs on the SSE4.2 / ARMv8
// CRC instructions. UpdateBitwise is the from-scratch definition the tests
// hold it to.
package crc32c

import "hash/crc32"

// Poly is the Castagnoli polynomial in reversed (LSB-first) bit order.
const Poly = crc32.Castagnoli

// Size is the size of a CRC32C checksum in bytes.
const Size = 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of data.
func Checksum(data []byte) uint32 { return Update(0, data) }

// Update returns the CRC32C of the bytes already summarized by crc followed
// by data. Update(Update(0, a), b) == Checksum(append(a, b...)).
func Update(crc uint32, data []byte) uint32 {
	return crc32.Update(crc, castagnoli, data)
}

// UpdateBitwise is the bit-at-a-time reference implementation.
func UpdateBitwise(crc uint32, data []byte) uint32 {
	crc = ^crc
	for _, b := range data {
		crc ^= uint32(b)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = (crc >> 1) ^ Poly
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}
