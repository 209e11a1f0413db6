package netstack

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"multikernel/internal/cache"
	"multikernel/internal/interconnect"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

func newSys(m *topo.Machine) (*sim.Engine, *cache.System) {
	e := sim.NewEngine(1)
	return e, cache.New(e, m, memory.New(m), interconnect.New(m))
}

func TestUDPFrameRoundTrip(t *testing.T) {
	src, dst := IP4(10, 0, 0, 1), IP4(10, 0, 0, 2)
	payload := []byte("hello multikernel")
	f := BuildUDPFrame(MAC{1}, MAC{2}, src, dst, 1234, 5678, payload)
	eth, ipb, err := ParseEth(f)
	if err != nil || eth.EtherType != EtherTypeIPv4 {
		t.Fatalf("eth: %v %x", err, eth.EtherType)
	}
	ip, body, err := ParseIPv4(ipb)
	if err != nil {
		t.Fatal(err)
	}
	if ip.Src != src || ip.Dst != dst || ip.Protocol != ProtoUDP {
		t.Fatalf("ip: %+v", ip)
	}
	udp, got, err := ParseUDP(body)
	if err != nil {
		t.Fatal(err)
	}
	if udp.SrcPort != 1234 || udp.DstPort != 5678 {
		t.Fatalf("udp: %+v", udp)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %q", got)
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	f := BuildUDPFrame(MAC{1}, MAC{2}, IP4(1, 2, 3, 4), IP4(5, 6, 7, 8), 1, 2, []byte("x"))
	_, ipb, _ := ParseEth(f)
	corrupted := append([]byte(nil), ipb...)
	corrupted[8] ^= 0xff // flip the TTL
	if _, _, err := ParseIPv4(corrupted); err != ErrBadChecksum {
		t.Fatalf("err=%v, want bad checksum", err)
	}
}

func TestTCPHeaderRoundTrip(t *testing.T) {
	h := TCPHeader{SrcPort: 80, DstPort: 40000, Seq: 12345, Ack: 999, Flags: TCPSyn | TCPAck, Window: 1024}
	b := h.Marshal(nil)
	got, payload, err := ParseTCP(append(b, 'd', 'a', 't', 'a'))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("got %+v want %+v", got, h)
	}
	if string(payload) != "data" {
		t.Fatalf("payload %q", payload)
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(srcPort, dstPort uint16, src, dst uint32, payload []byte) bool {
		if len(payload) > 1400 {
			return true
		}
		fr := BuildUDPFrame(MAC{9}, MAC{8}, IPAddr(src), IPAddr(dst), srcPort, dstPort, payload)
		_, ipb, err := ParseEth(fr)
		if err != nil {
			return false
		}
		ip, body, err := ParseIPv4(ipb)
		if err != nil || ip.Src != IPAddr(src) || ip.Dst != IPAddr(dst) {
			return false
		}
		udp, got, err := ParseUDP(body)
		if err != nil || udp.SrcPort != srcPort || udp.DstPort != dstPort {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedPacketsRejected(t *testing.T) {
	if _, _, err := ParseEth([]byte{1, 2, 3}); err != ErrTruncated {
		t.Fatal("short eth accepted")
	}
	if _, _, err := ParseIPv4(make([]byte, 10)); err != ErrTruncated {
		t.Fatal("short ip accepted")
	}
	if _, _, err := ParseUDP(make([]byte, 4)); err != ErrTruncated {
		t.Fatal("short udp accepted")
	}
	if _, _, err := ParseTCP(make([]byte, 10)); err != ErrTruncated {
		t.Fatal("short tcp accepted")
	}
}

func TestWireSerializesAndDelays(t *testing.T) {
	m := topo.Intel2x4()
	e, _ := newSys(m)
	w := NewWire(e, 1, m.ClockGHz) // 1 Gb/s
	var got []Frame
	var at []sim.Time
	w.Attach(portFunc(func(f Frame) { got = append(got, f); at = append(at, e.Now()) }), portFunc(func(f Frame) {}))
	// Send two 1250-byte frames from B to A: at 1Gb/s and 2.66GHz,
	// 1250 bytes is 10µs*2.66e9... = 1250/0.047 ≈ 26.6k cycles each.
	e.Spawn("tx", func(p *sim.Proc) {
		w.transmit(false, make(Frame, 1250))
		w.transmit(false, make(Frame, 1250))
	})
	e.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %d frames", len(got))
	}
	gap := at[1] - at[0]
	txTime := sim.Time(1250.0 / (1e9 / 8 / (m.ClockGHz * 1e9)))
	if gap < txTime*9/10 || gap > txTime*11/10 {
		t.Fatalf("inter-frame gap %d, want ~%d (serialization)", gap, txTime)
	}
}

// portFunc adapts a function to the Port interface.
type portFunc func(f Frame)

func (fn portFunc) Deliver(f Frame) { fn(f) }

func TestNICLoopDelivery(t *testing.T) {
	m := topo.Intel2x4()
	e, sys := newSys(m)
	w := NewWire(e, 1, m.ClockGHz)
	nicA := NewNIC(e, sys, "eth0", w, true)
	nicB := NewNIC(e, sys, "eth1", w, false)
	w.Attach(nicA, nicB)
	frame := BuildUDPFrame(MAC{1}, MAC{2}, IP4(10, 0, 0, 1), IP4(10, 0, 0, 2), 1, 2, []byte("ping"))
	var got Frame
	e.Spawn("driverB", func(p *sim.Proc) {
		for got == nil {
			if f := nicB.Poll(p, 4, nil); f != nil {
				got = f
			} else {
				p.Sleep(500)
			}
		}
	})
	e.Spawn("driverA", func(p *sim.Proc) {
		if err := nicA.Transmit(p, 0, frame); err != nil {
			t.Error(err)
		}
	})
	e.RunUntil(10_000_000)
	if !bytes.Equal(got, frame) {
		t.Fatalf("frame corrupted in transit (%d bytes)", len(got))
	}
	if nicA.Stats().TxFrames != 1 || nicB.Stats().RxFrames != 1 {
		t.Fatal("NIC counters wrong")
	}
	e.Close()
}

func TestUDPOverURPCLoopback(t *testing.T) {
	m := topo.AMD2x2()
	e, sys := newSys(m)
	a := NewStack(e, sys, "src", 0, IP4(127, 0, 0, 1))
	b := NewStack(e, sys, "sink", 2, IP4(127, 0, 0, 2))
	pumpA, pumpB := ConnectLoopback(a, b)
	_ = pumpA
	sockA := a.BindUDP(1000)
	sockB := b.BindUDP(2000)
	const n = 50
	var got int
	e.Spawn("sink", func(p *sim.Proc) {
		for got < n {
			if d, ok := sockB.TryRecv(p); ok {
				if len(d.Payload) != 1000 {
					t.Errorf("payload %d bytes", len(d.Payload))
				}
				got++
				continue
			}
			if !pumpB(p) {
				p.Sleep(300)
			}
		}
	})
	e.Spawn("src", func(p *sim.Proc) {
		payload := bytes.Repeat([]byte{7}, 1000)
		for i := 0; i < n; i++ {
			sockA.SendTo(p, b.IP, 2000, payload)
		}
	})
	e.RunUntil(50_000_000)
	if got != n {
		t.Fatalf("sink received %d/%d", got, n)
	}
	e.Close()
}

func TestUDPEchoThroughNICAndDriver(t *testing.T) {
	m := topo.Intel2x4()
	e, sys := newSys(m)
	w := NewWire(e, 1, m.ClockGHz)
	nic := NewNIC(e, sys, "e1000", w, true)

	// Load generator on the far end of the wire.
	var echoed int
	gen := portFunc(func(f Frame) { echoed++ })
	w.Attach(nic, gen)

	app := NewStack(e, sys, "echo", 3, IP4(192, 168, 1, 1))
	NewDriver(e, sys, nic, 2, app)
	sock := app.BindUDP(7)

	e.Spawn("echo-app", func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			if d, ok := sock.TryRecv(p); ok {
				sock.SendTo(p, d.Src, d.SrcPort, d.Payload)
				continue
			}
			if !app.PumpReady(p) {
				p.Sleep(400)
			}
		}
	})
	// Inject requests from the generator side.
	clientMAC := MAC{0xaa}
	for i := 0; i < 10; i++ {
		f := BuildUDPFrame(clientMAC, app.MAC, IP4(192, 168, 1, 99), app.IP, 5555, 7, bytes.Repeat([]byte{1}, 64))
		i := i
		e.After(sim.Time(100_000*(i+1)), func() { w.transmit(false, f) })
	}
	e.RunUntil(60_000_000)
	if echoed != 10 {
		t.Fatalf("echoed %d/10 packets", echoed)
	}
	e.Close()
}

func TestTCPConnectSendClose(t *testing.T) {
	m := topo.AMD2x2()
	e, sys := newSys(m)
	server := NewStack(e, sys, "server", 1, IP4(10, 0, 0, 1))
	client := NewStack(e, sys, "client", 3, IP4(10, 0, 0, 2))
	pumpS, pumpC := ConnectLoopback(server, client)
	_ = pumpC
	lis := server.ListenTCP(80)

	var serverGot []byte
	var clientGot []byte
	e.Spawn("server", func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			pumpS(p)
			if c, ok := lis.TryAccept(p); ok {
				req, ok := c.Recv(p)
				if !ok {
					t.Error("no request")
					return
				}
				serverGot = req
				c.Send(p, bytes.Repeat([]byte{0x42}, 4100)) // multi-segment response
				c.Close(p)
				return
			}
			p.Sleep(400)
		}
	})
	e.Spawn("client", func(p *sim.Proc) {
		conn := client.Dial(p, server.IP, 80)
		conn.Send(p, []byte("GET /index.html"))
		for {
			b, ok := conn.Recv(p)
			if !ok {
				break
			}
			clientGot = append(clientGot, b...)
		}
		conn.Close(p)
	})
	e.RunUntil(80_000_000)
	if string(serverGot) != "GET /index.html" {
		t.Fatalf("server got %q", serverGot)
	}
	if len(clientGot) != 4100 {
		t.Fatalf("client got %d bytes, want 4100", len(clientGot))
	}
	e.Close()
}

func TestLoopbackPutsTrafficOnFabric(t *testing.T) {
	m := topo.AMD2x2()
	e, sys := newSys(m)
	a := NewStack(e, sys, "a", 0, IP4(127, 0, 0, 1))
	b := NewStack(e, sys, "b", 2, IP4(127, 0, 0, 2))
	_, pumpB := ConnectLoopback(a, b)
	sa := a.BindUDP(1)
	sb := b.BindUDP(2)
	got := 0
	e.Spawn("sink", func(p *sim.Proc) {
		for got < 5 {
			if _, ok := sb.TryRecv(p); ok {
				got++
			} else if !pumpB(p) {
				p.Sleep(300)
			}
		}
	})
	e.Spawn("src", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			sa.SendTo(p, b.IP, 2, bytes.Repeat([]byte{9}, 1000))
		}
	})
	e.RunUntil(20_000_000)
	if got != 5 {
		t.Fatalf("got %d", got)
	}
	if fwd := sys.Fabric().PathDwords(0, 1); fwd == 0 {
		t.Fatal("no payload traffic on fabric")
	}
	e.Close()
}

// Property: arbitrary request/response byte strings survive a TCP
// connection over the loopback link intact, for any sizes up to several
// segments.
func TestTCPTransferProperty(t *testing.T) {
	f := func(reqSeed, respSeed uint32, reqLen, respLen uint16) bool {
		rl := int(reqLen)%2000 + 1
		pl := int(respLen)%6000 + 1
		req := make([]byte, rl)
		for i := range req {
			req[i] = byte(reqSeed >> (uint(i) % 24))
		}
		resp := make([]byte, pl)
		for i := range resp {
			resp[i] = byte(respSeed >> (uint(i) % 24))
		}

		m := topo.AMD2x2()
		e, sys := newSys(m)
		defer e.Close()
		server := NewStack(e, sys, "s", 1, IP4(10, 0, 0, 1))
		client := NewStack(e, sys, "c", 3, IP4(10, 0, 0, 2))
		ConnectLoopback(server, client)
		lis := server.ListenTCP(80)

		var gotReq, gotResp []byte
		e.Spawn("server", func(p *sim.Proc) {
			p.SetDaemon(true)
			conn := lis.Accept(p)
			b, ok := conn.RecvN(p, rl)
			if !ok {
				return
			}
			gotReq = b
			conn.Send(p, resp)
			conn.Close(p)
		})
		e.Spawn("client", func(p *sim.Proc) {
			conn := client.Dial(p, server.IP, 80)
			conn.Send(p, req)
			for {
				b, ok := conn.Recv(p)
				if !ok {
					break
				}
				gotResp = append(gotResp, b...)
			}
			conn.Close(p)
		})
		e.RunUntil(200_000_000)
		return bytes.Equal(gotReq, req) && bytes.Equal(gotResp, resp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestNICFramesWithinDMALatency delivers frames closer together than the
// NIC's DMA latency: each claims its own receive slot when it arrives, so
// every frame reaches the application in order with its own bytes, and a
// burst that fills the ring drops, and counts, only the frames past it.
func TestNICFramesWithinDMALatency(t *testing.T) {
	m := topo.Intel2x4()
	e, sys := newSys(m)
	w := NewWire(e, 1, m.ClockGHz)
	nic := NewNIC(e, sys, "e1000", w, true)
	w.Attach(nic, portFunc(func(Frame) {}))
	app := NewStack(e, sys, "sink", 3, IP4(192, 168, 1, 1))
	NewDriver(e, sys, nic, 2, app)
	sock := app.BindUDP(7)
	var got []string
	e.Spawn("sink-app", func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			if dg, ok := sock.TryRecv(p); ok {
				got = append(got, fmt.Sprintf("%d:%d", dg.Payload[0], len(dg.Payload)))
				continue
			}
			if !app.PumpReady(p) {
				p.Sleep(400)
			}
		}
	})
	frame := func(i int) Frame {
		return BuildUDPFrame(MAC{0xaa}, app.MAC, IP4(192, 168, 1, 99), app.IP, 5555, 7, bytes.Repeat([]byte{byte(i)}, 64+3*i))
	}
	var want []string
	deliver := func(i int, at sim.Time) {
		f := frame(i)
		e.After(at, func() { nic.Deliver(f) })
		want = append(want, fmt.Sprintf("%d:%d", i, 64+3*i))
	}
	// Two frames 500 cycles apart, then 36 paced ones that wrap the ring,
	// then two more 500 cycles apart.
	deliver(0, 100_000)
	deliver(1, 100_500)
	for i := 2; i < 38; i++ {
		deliver(i, sim.Time(200_000+20_000*i))
	}
	deliver(38, 1_000_000)
	deliver(39, 1_000_500)
	// A burst one cycle apart: the first nicRings frames claim the ring,
	// the rest are dropped before the driver can drain any.
	for i := 40; i < 40+nicRings+8; i++ {
		f := frame(i)
		e.After(sim.Time(1_100_000+i), func() { nic.Deliver(f) })
		if i < 40+nicRings {
			want = append(want, fmt.Sprintf("%d:%d", i, 64+3*i))
		}
	}
	e.RunUntil(3_000_000)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the application received (frame:bytes)\n%v\nwant\n%v", got, want)
	}
	if st := nic.Stats(); st.RxFrames != uint64(len(want)) || st.RxDropped != 8 {
		t.Errorf("NIC counted %d frames received and %d dropped, want %d and 8", st.RxFrames, st.RxDropped, len(want))
	}
	e.Close()
}
