package caps

import "multikernel/internal/memory"

// This file holds the wire form of capabilities: monitors exchange
// capabilities between cores (§4.8), and the packed words are what an
// inter-monitor message carries.

// PackWords encodes the capability into two 64-bit words plus a rights/type
// word fragment, the representation that fits a URPC message. The layout is
// stable: w0 = base, w1 = bytes, w2 = type<<16 | level<<8 | rights.
func (c Capability) PackWords() (w0, w1, w2 uint64) {
	return uint64(c.Base), c.Bytes,
		uint64(c.Type)<<16 | uint64(c.Level)<<8 | uint64(c.Rights)
}

// UnpackWords reverses PackWords.
func UnpackWords(w0, w1, w2 uint64) Capability {
	return Capability{
		Type:   Type(w2 >> 16),
		Level:  int(w2 >> 8 & 0xff),
		Base:   memory.Addr(w0),
		Bytes:  w1,
		Rights: Rights(w2 & 0xff),
	}
}
