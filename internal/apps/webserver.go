package apps

import (
	"fmt"
	"strconv"
	"strings"

	"multikernel/internal/netstack"
	"multikernel/internal/sim"
)

// HTTP processing costs in cycles, calibrated to era web servers: lighttpd
// in 2008 spent on the order of 100µs of CPU per request (8924 req/s on a
// 2.8GHz core); the user-space Barrelfish pipeline halves that by avoiding
// kernel crossings (§5.4).
const (
	httpParseCost    = 4_000   // request line + header parsing, routing
	httpBuildCost    = 4_000   // response formatting
	connAcceptCost   = 100_000 // accept, socket/fd setup, event registration
	connTeardownCost = 25_000  // close, state teardown
)

// StaticPage is the 4.1kB page of §5.4's static-content experiment.
func StaticPage() []byte {
	var b strings.Builder
	b.WriteString("<html><head><title>barrelfish</title></head><body>\n")
	for b.Len() < 4100 {
		b.WriteString("<p>the multikernel treats the machine as a network of cores</p>\n")
	}
	return []byte(b.String()[:4100])
}

// WebServer serves static content, and optionally database-backed queries,
// over a netstack TCP listener. One instance runs on one core, as in the
// paper's placement experiment.
type WebServer struct {
	Stack *netstack.Stack
	Page  []byte
	DB    *KVClient // nil for static-only serving

	Requests uint64
}

// Serve runs the accept loop forever on the caller's proc (mark it daemon).
func (w *WebServer) Serve(p *sim.Proc) {
	lis := w.Stack.ListenTCP(80)
	for {
		conn := lis.PollAccept(p)
		p.Sleep(connAcceptCost)
		w.handle(p, conn)
	}
}

// readTimeout bounds how long the server waits for a request on an accepted
// connection; under overload the client's request frame may have been
// dropped, and a serial server must not wedge on it.
const readTimeout = 400_000

// handle serves requests on one connection until the peer closes.
func (w *WebServer) handle(p *sim.Proc, conn *netstack.TCPConn) {
	for {
		req, ok := conn.RecvTimeout(p, readTimeout)
		if !ok {
			conn.Close(p)
			return
		}
		p.Sleep(httpParseCost)
		path := parseRequestPath(string(req))
		var body []byte
		status := "200 OK"
		switch {
		case path == "/index.html" || path == "/":
			body = w.Page
		case strings.HasPrefix(path, "/db/") && w.DB != nil:
			key, err := strconv.ParseUint(path[len("/db/"):], 10, 64)
			if err != nil {
				status, body = "400 Bad Request", []byte("bad key")
				break
			}
			v, found, err := w.DB.Select(p, key)
			if err != nil {
				status, body = "503 Service Unavailable", []byte("db down")
				break
			}
			if !found {
				status, body = "404 Not Found", []byte("no row")
				break
			}
			body = []byte(fmt.Sprintf("{\"key\":%d,\"value\":%d}", key, v))
		case strings.HasPrefix(path, "/range/") && w.DB != nil:
			lo, hi, ok := parseRangeSpec(path[len("/range/"):])
			if !ok {
				status, body = "400 Bad Request", []byte("bad range")
				break
			}
			// Row values arrive zero-copy over the client's bulk channel.
			vals, err := w.DB.SelectRange(p, lo, hi)
			if err != nil {
				status, body = "503 Service Unavailable", []byte("db down")
				break
			}
			var sum uint64
			for _, v := range vals {
				sum += v
			}
			body = []byte(fmt.Sprintf("{\"count\":%d,\"sum\":%d}", len(vals), sum))
		default:
			status, body = "404 Not Found", []byte("not found")
		}
		p.Sleep(httpBuildCost)
		resp := fmt.Sprintf("HTTP/1.0 %s\r\nContent-Length: %d\r\n\r\n", status, len(body))
		w.Requests++
		conn.Send(p, append([]byte(resp), body...))
		conn.Close(p)
		p.Sleep(connTeardownCost)
		return
	}
}

// parseRangeSpec parses the "<lo>-<hi>" tail of a /range/ request.
func parseRangeSpec(s string) (lo, hi uint64, ok bool) {
	i := strings.IndexByte(s, '-')
	if i < 0 {
		return 0, 0, false
	}
	lo, err1 := strconv.ParseUint(s[:i], 10, 64)
	hi, err2 := strconv.ParseUint(s[i+1:], 10, 64)
	return lo, hi, err1 == nil && err2 == nil && lo <= hi
}

// parseRequestPath extracts the path of a "GET <path> HTTP/1.0" request.
func parseRequestPath(req string) string {
	parts := strings.Fields(req)
	if len(parts) < 2 || parts[0] != "GET" {
		return ""
	}
	return parts[1]
}

// BuildRequest formats a minimal HTTP GET.
func BuildRequest(path string) []byte {
	return []byte("GET " + path + " HTTP/1.0\r\n\r\n")
}

// ParseResponse splits an HTTP response into status line and body; ok
// reports a 200.
func ParseResponse(b []byte) (status string, body []byte, ok bool) {
	s := string(b)
	i := strings.Index(s, "\r\n\r\n")
	if i < 0 {
		return "", nil, false
	}
	head := s[:i]
	lines := strings.Split(head, "\r\n")
	status = lines[0]
	return status, b[i+4:], strings.Contains(status, "200")
}
