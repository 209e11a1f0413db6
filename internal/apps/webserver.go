package apps

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"unicode"

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

	// The response and its body as they are built; every request reuses
	// them, and TCPConn.Send copies the response into frames.
	resp, body []byte
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
		status, body := w.route(p, parseRequestPath(req))
		p.Sleep(httpBuildCost)
		resp := append(w.resp[:0], "HTTP/1.0 "...)
		resp = append(resp, status...)
		resp = append(resp, "\r\nContent-Length: "...)
		resp = strconv.AppendInt(resp, int64(len(body)), 10)
		resp = append(resp, "\r\n\r\n"...)
		w.resp = append(resp, body...)
		w.Requests++
		conn.Send(p, w.resp)
		conn.Close(p)
		p.Sleep(connTeardownCost)
		return
	}
}

// route serves a request for path and returns the response's status and
// body. A row's body is built in w.body, which the next request reuses.
func (w *WebServer) route(p *sim.Proc, path []byte) (status string, body []byte) {
	switch {
	case string(path) == "/index.html" || string(path) == "/":
		return "200 OK", w.Page
	case bytes.HasPrefix(path, []byte("/db/")) && w.DB != nil:
		key, ok := parseUint(path[len("/db/"):])
		if !ok {
			return "400 Bad Request", []byte("bad key")
		}
		v, found, err := w.DB.Select(p, key)
		if err != nil {
			return "503 Service Unavailable", []byte("db down")
		}
		if !found {
			return "404 Not Found", []byte("no row")
		}
		return "200 OK", w.json("key", key, "value", v)
	case bytes.HasPrefix(path, []byte("/range/")) && w.DB != nil:
		lo, hi, ok := parseRangeSpec(path[len("/range/"):])
		if !ok {
			return "400 Bad Request", []byte("bad range")
		}
		// Row values arrive zero-copy over the client's bulk channel.
		vals, err := w.DB.SelectRange(p, lo, hi)
		if err != nil {
			return "503 Service Unavailable", []byte("db down")
		}
		var sum uint64
		for _, v := range vals {
			sum += v
		}
		return "200 OK", w.json("count", uint64(len(vals)), "sum", sum)
	}
	return "404 Not Found", []byte("not found")
}

// json sets the body to the object {"k1":v1,"k2":v2}.
func (w *WebServer) json(k1 string, v1 uint64, k2 string, v2 uint64) []byte {
	b := append(w.body[:0], `{"`...)
	b = append(b, k1...)
	b = append(b, `":`...)
	b = strconv.AppendUint(b, v1, 10)
	b = append(b, `,"`...)
	b = append(b, k2...)
	b = append(b, `":`...)
	b = strconv.AppendUint(b, v2, 10)
	w.body = append(b, '}')
	return w.body
}

// parseRangeSpec parses the "<lo>-<hi>" tail of a /range/ request.
func parseRangeSpec(s []byte) (lo, hi uint64, ok bool) {
	i := bytes.IndexByte(s, '-')
	if i < 0 {
		return 0, 0, false
	}
	lo, ok1 := parseUint(s[:i])
	hi, ok2 := parseUint(s[i+1:])
	return lo, hi, ok1 && ok2 && lo <= hi
}

// parseUint parses a decimal number as strconv.ParseUint(s, 10, 64) does:
// at least one digit, nothing else, and no overflow.
func parseUint(s []byte) (uint64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range s {
		d := uint64(c - '0')
		if d > 9 || n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// parseRequestPath extracts the path of a "GET <path> HTTP/1.0" request:
// the second of the request's space-separated fields, as strings.Fields
// splits them, if the first is GET; nil otherwise.
func parseRequestPath(req []byte) []byte {
	method, rest := nextField(req)
	if string(method) != "GET" {
		return nil
	}
	path, _ := nextField(rest)
	return path
}

// nextField returns the first field of b and what follows it. Fields are
// separated by runs of Unicode white space; a byte that is not valid UTF-8
// is not space.
func nextField(b []byte) (field, rest []byte) {
	b = bytes.TrimLeftFunc(b, unicode.IsSpace)
	if i := bytes.IndexFunc(b, unicode.IsSpace); i >= 0 {
		return b[:i], b[i:]
	}
	return b, nil
}

// BuildRequest formats a minimal HTTP GET.
func BuildRequest(path string) []byte {
	b := make([]byte, 0, len("GET ")+len(path)+len(" HTTP/1.0\r\n\r\n"))
	b = append(b, "GET "...)
	b = append(b, path...)
	return append(b, " HTTP/1.0\r\n\r\n"...)
}

// ParseResponse splits an HTTP response into status line and body; ok
// reports a 200. The body aliases b.
func ParseResponse(b []byte) (status string, body []byte, ok bool) {
	i := bytes.Index(b, []byte("\r\n\r\n"))
	if i < 0 {
		return "", nil, false
	}
	line := b[:i]
	if j := bytes.Index(line, []byte("\r\n")); j >= 0 {
		line = line[:j]
	}
	status = string(line)
	return status, b[i+4:], strings.Contains(status, "200")
}
