package apps

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// refParseRequestPath and refParseRangeSpec are the string-based request
// parsers that parseRequestPath and parseRangeSpec replaced: the reference
// they must agree with.
func refParseRequestPath(req string) string {
	parts := strings.Fields(req)
	if len(parts) < 2 || parts[0] != "GET" {
		return ""
	}
	return parts[1]
}

func refParseRangeSpec(s string) (lo, hi uint64, ok bool) {
	i := strings.IndexByte(s, '-')
	if i < 0 {
		return 0, 0, false
	}
	lo, err1 := strconv.ParseUint(s[:i], 10, 64)
	hi, err2 := strconv.ParseUint(s[i+1:], 10, 64)
	return lo, hi, err1 == nil && err2 == nil && lo <= hi
}

// FuzzParseRequest feeds arbitrary bytes to the web server's request
// parsing: parseRequestPath, parseRangeSpec and parseUint must not panic,
// and must agree with strings.Fields and strconv.ParseUint. The range
// parser sees the path's /range/ tail and the raw input.
func FuzzParseRequest(f *testing.F) {
	for _, seed := range []string{
		"GET / HTTP/1.0\r\n\r\n",
		"GET /index.html HTTP/1.0\r\n\r\n",
		"GET /db/123 HTTP/1.0\r\n\r\n",
		"GET /range/4711-4735 HTTP/1.0\r\n\r\n",
		"/db/123 HTTP/1.0\r\n\r\n",                     // no method
		"POST /db/123 HTTP/1.0\r\n\r\n",                // not GET
		"GET /range/5-3 HTTP/1.0\r\n\r\n",              // lo > hi
		"GET /range/0-18446744073709551616 HTTP/1.0",   // hi overflows uint64
		"GET /db/99999999999999999999999 HTTP/1.0\r\n", // key overflows uint64
		"GET /range/18446744073709551615-18446744073709551615",
		"GET\t/db/7\tHTTP/1.0\r\n\r\n",       // tabs
		"GET /db/7\rHTTP/1.0",                // bare CR
		"GET\n/range/1-2\n",                  // bare LF
		"GET",                                // no path
		"  GET   /   ",                       // runs of spaces
		"\u00a0GET\u2003/db/1\u0085HTTP/1.0", // Unicode spaces
		"GET /db/\xff1 \xc2",                 // invalid UTF-8
		"GET /range/-1 HTTP/1.0",             // empty lo
		"GET /range/1- HTTP/1.0",             // empty hi
		"GET /range/+1-2 HTTP/1.0",           // sign
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, req []byte) {
		path := parseRequestPath(req)
		if got, want := string(path), refParseRequestPath(string(req)); got != want {
			t.Fatalf("parseRequestPath(%q) = %q, want %q", req, got, want)
		}
		for _, spec := range [][]byte{bytes.TrimPrefix(path, []byte("/range/")), req} {
			lo, hi, ok := parseRangeSpec(spec)
			wlo, whi, wok := refParseRangeSpec(string(spec))
			if ok != wok || ok && (lo != wlo || hi != whi) {
				t.Fatalf("parseRangeSpec(%q) = %d, %d, %v; want %d, %d, %v", spec, lo, hi, ok, wlo, whi, wok)
			}
		}
		n, ok := parseUint(req)
		want, err := strconv.ParseUint(string(req), 10, 64)
		if ok != (err == nil) || ok && n != want {
			t.Fatalf("parseUint(%q) = %d, %v; strconv.ParseUint gives %d, %v", req, n, ok, want, err)
		}
	})
}
