// Package ckpt provides the small length-prefixed little-endian encoding
// primitives shared by every checkpoint serializer in the simulator
// (internal/sim engine state, cache directories, memory pages, metrics).
// Keeping the primitives in one dependency-free package gives every
// component the same byte-level conventions — which is what makes "the
// checkpoint bytes are the state" a usable equivalence test: two runs are
// byte-identical exactly when every component serializes identically.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// WriteU64 writes each value as 8 little-endian bytes.
func WriteU64(w io.Writer, vs ...uint64) error {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// ReadU64 reads 8 little-endian bytes into each destination.
func ReadU64(r io.Reader, vs ...*uint64) error {
	var buf [8]byte
	for _, v := range vs {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return err
		}
		*v = binary.LittleEndian.Uint64(buf[:])
	}
	return nil
}

// maxBlob bounds length prefixes accepted by ReadBytes/ReadU64Slice.
const maxBlob = 1 << 32

// chunk is the most ReadBytes/ReadU64Slice allocate ahead of the bytes they
// have actually read, so a corrupt length prefix on a short stream fails
// with an error after a bounded allocation instead of a huge one.
const chunk = 64 << 10

// WriteBytes writes b with a u64 length prefix.
func WriteBytes(w io.Writer, b []byte) error {
	if err := WriteU64(w, uint64(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// ReadBytes reads a length-prefixed byte slice.
func ReadBytes(r io.Reader) ([]byte, error) {
	var n uint64
	if err := ReadU64(r, &n); err != nil {
		return nil, err
	}
	if n > maxBlob {
		return nil, fmt.Errorf("ckpt: blob length %d exceeds limit", n)
	}
	b := make([]byte, 0, min(n, chunk))
	for uint64(len(b)) < n {
		m := len(b)
		step := int(min(n-uint64(m), chunk))
		b = slices.Grow(b, step)[:m+step]
		if _, err := io.ReadFull(r, b[m:]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// WriteString writes s with a u64 length prefix.
func WriteString(w io.Writer, s string) error { return WriteBytes(w, []byte(s)) }

// ReadString reads a length-prefixed string.
func ReadString(r io.Reader) (string, error) {
	b, err := ReadBytes(r)
	return string(b), err
}

// WriteU64Slice writes s with a u64 length prefix.
func WriteU64Slice(w io.Writer, s []uint64) error {
	if err := WriteU64(w, uint64(len(s))); err != nil {
		return err
	}
	return WriteU64(w, s...)
}

// ReadU64Slice reads a length-prefixed u64 slice.
func ReadU64Slice(r io.Reader) ([]uint64, error) {
	var n uint64
	if err := ReadU64(r, &n); err != nil {
		return nil, err
	}
	if n > maxBlob/8 {
		return nil, fmt.Errorf("ckpt: slice length %d exceeds limit", n)
	}
	s := make([]uint64, 0, min(n, chunk/8))
	for uint64(len(s)) < n {
		var v uint64
		if err := ReadU64(r, &v); err != nil {
			return nil, err
		}
		s = append(s, v)
	}
	return s, nil
}

// Magic writes a fixed marker string (a format tag or section trailer).
func Magic(w io.Writer, magic string) error {
	_, err := io.WriteString(w, magic)
	return err
}

// ExpectMagic reads len(magic) bytes and verifies them.
func ExpectMagic(r io.Reader, magic string) error {
	b := make([]byte, len(magic))
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	if string(b) != magic {
		return fmt.Errorf("ckpt: bad magic %q (want %q)", b, magic)
	}
	return nil
}
