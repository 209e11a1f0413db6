package ckpt

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"slices"
	"testing"
)

// bigLen and longLen size a blob and a slice that each span several read
// chunks.
const bigLen, longLen = 200_003, 10_003

// encodeAll writes one value of every primitive.
func encodeAll(t *testing.T) []byte {
	t.Helper()
	var w bytes.Buffer
	big := make([]byte, bigLen)
	for i := range big {
		big[i] = byte(i * 7)
	}
	long := make([]uint64, longLen)
	for i := range long {
		long[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	for _, err := range []error{
		Magic(&w, "CKPT"),
		WriteU64(&w, 0, 1, 1<<63),
		WriteBytes(&w, nil),
		WriteBytes(&w, big),
		WriteString(&w, "multikernel"),
		WriteU64Slice(&w, nil),
		WriteU64Slice(&w, long),
		Magic(&w, "END"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return w.Bytes()
}

var errMismatch = errors.New("decoded value differs from the encoded one")

// decodeAll reads back what encodeAll wrote and reports the first error or
// mismatch.
func decodeAll(r io.Reader) error {
	if err := ExpectMagic(r, "CKPT"); err != nil {
		return err
	}
	var a, b, c uint64
	if err := ReadU64(r, &a, &b, &c); err != nil {
		return err
	}
	if a != 0 || b != 1 || c != 1<<63 {
		return errMismatch
	}
	if empty, err := ReadBytes(r); err != nil || len(empty) != 0 {
		return errOr(err)
	}
	big, err := ReadBytes(r)
	if err != nil {
		return err
	}
	if len(big) != bigLen {
		return errMismatch
	}
	for i, v := range big {
		if v != byte(i*7) {
			return errMismatch
		}
	}
	if s, err := ReadString(r); err != nil || s != "multikernel" {
		return errOr(err)
	}
	if empty, err := ReadU64Slice(r); err != nil || len(empty) != 0 {
		return errOr(err)
	}
	long, err := ReadU64Slice(r)
	if err != nil {
		return err
	}
	want := make([]uint64, longLen)
	for i := range want {
		want[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	if !slices.Equal(long, want) {
		return errMismatch
	}
	return ExpectMagic(r, "END")
}

func errOr(err error) error {
	if err != nil {
		return err
	}
	return errMismatch
}

func TestRoundTripEveryPrimitive(t *testing.T) {
	img := encodeAll(t)
	r := bytes.NewReader(img)
	if err := decodeAll(r); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left after decoding", r.Len())
	}
}

func TestTruncatedStreamsFail(t *testing.T) {
	img := encodeAll(t)
	// Every cut inside the small leading fields, then cuts spread over the
	// big blob and slice (one per 4 KiB keeps the test fast).
	for n := 0; n < len(img); n++ {
		if n > 128 && n%4096 != 0 && n != len(img)-1 {
			continue
		}
		if err := decodeAll(bytes.NewReader(img[:n])); err == nil {
			t.Fatalf("decoding a %d-byte prefix of a %d-byte image succeeded", n, len(img))
		}
	}
}

func TestBadMagicFails(t *testing.T) {
	if err := ExpectMagic(bytes.NewReader([]byte("CKPX")), "CKPT"); err == nil {
		t.Fatal("ExpectMagic accepted the wrong marker")
	}
}

func TestOversizePrefixRejected(t *testing.T) {
	var w bytes.Buffer
	WriteU64(&w, maxBlob+1)
	if _, err := ReadBytes(bytes.NewReader(w.Bytes())); err == nil {
		t.Fatal("ReadBytes accepted a length above the limit")
	}
	if _, err := ReadU64Slice(bytes.NewReader(w.Bytes())); err == nil {
		t.Fatal("ReadU64Slice accepted a length above the limit")
	}
}

// A corrupt prefix claiming 1 GiB on a stream holding only the prefix must
// fail after an allocation that tracks the bytes present, not the claim.
func TestCorruptPrefixAllocatesLittle(t *testing.T) {
	var w bytes.Buffer
	WriteU64(&w, 1<<30)
	img := w.Bytes()
	for _, tc := range []struct {
		name string
		read func(io.Reader) error
	}{
		{"ReadBytes", func(r io.Reader) error { _, err := ReadBytes(r); return err }},
		{"ReadU64Slice", func(r io.Reader) error { _, err := ReadU64Slice(r); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.read(bytes.NewReader(img))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: decoding a bare 1 GiB prefix succeeded", tc.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: allocated %d bytes for an 8-byte stream, want < 1 MiB", tc.name, got)
		}
	}
}
