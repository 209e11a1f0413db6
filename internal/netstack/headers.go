// Package netstack implements the user-space network stack of the
// multikernel (paper §4.10, §5.4): lwIP-style protocol processing linked
// into application domains as a library, an e1000-style NIC device model
// with descriptor rings and DMA, URPC-based loopback links between stacks on
// different cores (Table 4), and a small TCP for request/response services.
//
// Header marshalling is real code over real bytes — checksums included — so
// the protocol path is exercised, while transport costs (DMA, cache-line
// copies, wire time) come from the simulation models. The NIC driver and
// the accept loop poll through urpc.Pass, whose quiet polls the engine
// skips: the NIC's next receive descriptor and the links' ring lines are
// watched, and Inject nudges the accept loop.
package netstack

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Protocol numbers and header sizes.
const (
	EtherTypeIPv4 = 0x0800
	ProtoUDP      = 17
	ProtoTCP      = 6

	EthHeaderLen  = 14
	IPv4HeaderLen = 20
	UDPHeaderLen  = 8
	TCPHeaderLen  = 20
)

// Errors returned by packet parsing.
var (
	ErrTruncated   = errors.New("netstack: truncated packet")
	ErrBadChecksum = errors.New("netstack: bad IPv4 header checksum")
)

// MAC is an Ethernet address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPAddr is an IPv4 address.
type IPAddr uint32

// IP4 builds an IPAddr from dotted quad components.
func IP4(a, b, c, d byte) IPAddr {
	return IPAddr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

func (ip IPAddr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// EthHeader is an Ethernet II frame header.
type EthHeader struct {
	Dst, Src  MAC
	EtherType uint16
}

// Marshal appends the header to b.
func (h *EthHeader) Marshal(b []byte) []byte {
	b = append(b, h.Dst[:]...)
	b = append(b, h.Src[:]...)
	return binary.BigEndian.AppendUint16(b, h.EtherType)
}

// ParseEth decodes an Ethernet header, returning it and the payload.
func ParseEth(b []byte) (EthHeader, []byte, error) {
	var h EthHeader
	if len(b) < EthHeaderLen {
		return h, nil, ErrTruncated
	}
	copy(h.Dst[:], b[0:6])
	copy(h.Src[:], b[6:12])
	h.EtherType = binary.BigEndian.Uint16(b[12:14])
	return h, b[EthHeaderLen:], nil
}

// IPv4Header is a (options-free) IPv4 header.
type IPv4Header struct {
	TTL      uint8
	Protocol uint8
	Src, Dst IPAddr
	Length   uint16 // total length including header
	ID       uint16
}

// ipv4Checksum computes the ones-complement header checksum.
func ipv4Checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// Marshal appends the header (with checksum) to b.
func (h *IPv4Header) Marshal(b []byte) []byte {
	start := len(b)
	b = append(b, 0x45, 0) // version/IHL, DSCP
	b = binary.BigEndian.AppendUint16(b, h.Length)
	b = binary.BigEndian.AppendUint16(b, h.ID)
	b = binary.BigEndian.AppendUint16(b, 0) // flags/fragment
	ttl := h.TTL
	if ttl == 0 {
		ttl = 64
	}
	b = append(b, ttl, h.Protocol)
	b = binary.BigEndian.AppendUint16(b, 0) // checksum placeholder
	b = binary.BigEndian.AppendUint32(b, uint32(h.Src))
	b = binary.BigEndian.AppendUint32(b, uint32(h.Dst))
	ck := ipv4Checksum(b[start:])
	binary.BigEndian.PutUint16(b[start+10:start+12], ck)
	return b
}

// ParseIPv4 decodes and checksum-verifies an IPv4 header, returning it and
// the payload.
func ParseIPv4(b []byte) (IPv4Header, []byte, error) {
	var h IPv4Header
	if len(b) < IPv4HeaderLen {
		return h, nil, ErrTruncated
	}
	if ipv4Checksum(b[:IPv4HeaderLen]) != 0 {
		return h, nil, ErrBadChecksum
	}
	h.Length = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Src = IPAddr(binary.BigEndian.Uint32(b[12:16]))
	h.Dst = IPAddr(binary.BigEndian.Uint32(b[16:20]))
	if int(h.Length) < IPv4HeaderLen || int(h.Length) > len(b) {
		return h, nil, ErrTruncated
	}
	return h, b[IPv4HeaderLen:h.Length], nil
}

// UDPHeader is a UDP header.
type UDPHeader struct {
	SrcPort, DstPort uint16
	Length           uint16 // header + payload
}

// Marshal appends the header to b (checksum omitted, as permitted for IPv4).
func (h *UDPHeader) Marshal(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, h.SrcPort)
	b = binary.BigEndian.AppendUint16(b, h.DstPort)
	b = binary.BigEndian.AppendUint16(b, h.Length)
	return binary.BigEndian.AppendUint16(b, 0)
}

// ParseUDP decodes a UDP header, returning it and the payload.
func ParseUDP(b []byte) (UDPHeader, []byte, error) {
	var h UDPHeader
	if len(b) < UDPHeaderLen {
		return h, nil, ErrTruncated
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Length = binary.BigEndian.Uint16(b[4:6])
	if int(h.Length) < UDPHeaderLen || int(h.Length) > len(b) {
		return h, nil, ErrTruncated
	}
	return h, b[UDPHeaderLen:h.Length], nil
}

// TCP flag bits.
const (
	TCPFin uint8 = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
)

// TCPHeader is an options-free TCP header.
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
}

// Marshal appends the header to b.
func (h *TCPHeader) Marshal(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, h.SrcPort)
	b = binary.BigEndian.AppendUint16(b, h.DstPort)
	b = binary.BigEndian.AppendUint32(b, h.Seq)
	b = binary.BigEndian.AppendUint32(b, h.Ack)
	b = append(b, 5<<4, h.Flags) // data offset = 5 words
	b = binary.BigEndian.AppendUint16(b, h.Window)
	b = binary.BigEndian.AppendUint16(b, 0)    // checksum (offloaded)
	return binary.BigEndian.AppendUint16(b, 0) // urgent
}

// ParseTCP decodes a TCP header, returning it and the payload.
func ParseTCP(b []byte) (TCPHeader, []byte, error) {
	var h TCPHeader
	if len(b) < TCPHeaderLen {
		return h, nil, ErrTruncated
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Seq = binary.BigEndian.Uint32(b[4:8])
	h.Ack = binary.BigEndian.Uint32(b[8:12])
	off := int(b[12]>>4) * 4
	if off < TCPHeaderLen || off > len(b) {
		return h, nil, ErrTruncated
	}
	h.Flags = b[13]
	h.Window = binary.BigEndian.Uint16(b[14:16])
	return h, b[off:], nil
}

// BuildUDPFrame assembles a complete Ethernet/IPv4/UDP frame.
func BuildUDPFrame(srcMAC, dstMAC MAC, src, dst IPAddr, srcPort, dstPort uint16, payload []byte) []byte {
	eth := EthHeader{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4}
	ip := IPv4Header{
		Protocol: ProtoUDP,
		Src:      src, Dst: dst,
		Length: uint16(IPv4HeaderLen + UDPHeaderLen + len(payload)),
	}
	udp := UDPHeader{SrcPort: srcPort, DstPort: dstPort, Length: uint16(UDPHeaderLen + len(payload))}
	b := make([]byte, 0, EthHeaderLen+int(ip.Length))
	b = eth.Marshal(b)
	b = ip.Marshal(b)
	b = udp.Marshal(b)
	return append(b, payload...)
}

// BuildTCPFrame assembles a complete Ethernet/IPv4/TCP frame.
func BuildTCPFrame(srcMAC, dstMAC MAC, src, dst IPAddr, tcp TCPHeader, payload []byte) []byte {
	eth := EthHeader{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4}
	ip := IPv4Header{
		Protocol: ProtoTCP,
		Src:      src, Dst: dst,
		Length: uint16(IPv4HeaderLen + TCPHeaderLen + len(payload)),
	}
	b := make([]byte, 0, EthHeaderLen+int(ip.Length))
	b = eth.Marshal(b)
	b = ip.Marshal(b)
	b = tcp.Marshal(b)
	return append(b, payload...)
}
