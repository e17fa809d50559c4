package wire

import "math/rand"

// Frame is a serialized Ethernet/IPv4/TCP frame as produced by
// (*Packet).Marshal. The named type exists so the
// wiremut analyzer can enforce DESIGN.md's mutation invariant: header
// bytes carry the IP and TCP checksums, so outside this package a
// frame is mutated only through checksum-aware helpers (SetCE,
// CorruptPayload, FlipRandomBit). Code that genuinely needs raw byte
// access converts with []byte(f) — an explicit, greppable escape hatch.
//
// Frame and []byte convert implicitly in assignments and calls (both are
// unnamed-compatible), so the type costs nothing at call sites.
type Frame []byte

// Clone returns an independent copy of the frame. Links use it when one
// delivery must not alias another (duplication, corruption, CE re-marks).
func (f Frame) Clone() Frame {
	if f == nil {
		return nil
	}
	return append(Frame(nil), f...)
}

// FlipRandomBit flips one random bit anywhere in the frame — headers
// included — without repairing any checksum. It models on-the-wire damage
// that the L3/L4 checksums exist to catch: the receiver is expected to
// drop the frame in Parse. Randomness comes only from rng,
// keeping seeded runs deterministic. It reports whether a bit was flipped
// (false only for empty frames).
func FlipRandomBit(rng *rand.Rand, f Frame) bool {
	if len(f) == 0 {
		return false
	}
	f[rng.Intn(len(f))] ^= 1 << rng.Intn(8)
	return true
}
