package netstack

import (
	"encoding/binary"
	"testing"
)

// An IPv4 header with a valid checksum whose total-length field is below the
// header size must be rejected as truncated, not sliced past its end.
func TestParseIPv4RejectsLengthBelowHeader(t *testing.T) {
	h := IPv4Header{Protocol: ProtoUDP, Src: IP4(10, 0, 0, 1), Dst: IP4(10, 0, 0, 2), Length: 10}
	b := append(h.Marshal(nil), make([]byte, 16)...)
	if _, _, err := ParseIPv4(b); err != ErrTruncated {
		t.Fatalf("err=%v, want ErrTruncated", err)
	}
}

// withValidChecksum returns a copy of an IPv4 packet whose header checksum
// is recomputed, so the fuzzer reaches the length checks behind it.
func withValidChecksum(ipb []byte) []byte {
	c := append([]byte(nil), ipb...)
	binary.BigEndian.PutUint16(c[10:12], 0)
	binary.BigEndian.PutUint16(c[10:12], ipv4Checksum(c[:IPv4HeaderLen]))
	return c
}

// FuzzParseFrame feeds arbitrary bytes through the receive path's parsers
// (Ethernet, IPv4, then UDP and TCP) and requires that none of them panics
// and that every accepted header's payload lies within its input.
func FuzzParseFrame(f *testing.F) {
	src, dst := IP4(10, 0, 0, 1), IP4(10, 0, 0, 2)
	f.Add(BuildUDPFrame(MAC{1}, MAC{2}, src, dst, 1234, 5678, []byte("hello multikernel")))
	f.Add(BuildUDPFrame(MAC{1}, MAC{2}, src, dst, 53, 53, nil))
	f.Add(BuildTCPFrame(MAC{3}, MAC{4}, src, dst,
		TCPHeader{SrcPort: 80, DstPort: 40000, Seq: 1, Ack: 2, Flags: TCPSyn | TCPAck, Window: 1024}, []byte("GET / HTTP/1.0\r\n\r\n")))
	f.Add(BuildTCPFrame(MAC{3}, MAC{4}, src, dst, TCPHeader{Flags: TCPFin}, nil))
	f.Fuzz(func(t *testing.T, frame []byte) {
		_, ipb, err := ParseEth(frame)
		if err != nil {
			return
		}
		if len(ipb) >= IPv4HeaderLen {
			parseIP(t, withValidChecksum(ipb))
		}
		parseIP(t, ipb)
	})
}

func parseIP(t *testing.T, ipb []byte) {
	h, body, err := ParseIPv4(ipb)
	if err != nil {
		return
	}
	if len(body) != int(h.Length)-IPv4HeaderLen {
		t.Fatalf("IPv4 length %d gave a %d-byte payload", h.Length, len(body))
	}
	if u, payload, err := ParseUDP(body); err == nil && len(payload) != int(u.Length)-UDPHeaderLen {
		t.Fatalf("UDP length %d gave a %d-byte payload", u.Length, len(payload))
	}
	if _, payload, err := ParseTCP(body); err == nil && len(payload) > len(body)-TCPHeaderLen {
		t.Fatalf("TCP payload of %d bytes from a %d-byte segment", len(payload), len(body))
	}
}
