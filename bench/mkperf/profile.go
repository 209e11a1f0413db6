package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileShares splits a CPU profile's flat samples (each sample charged to
// its innermost frame) by Go package, grouped into hostBuckets, as shares of
// the profile's total CPU time. An empty profile yields all-zero shares.
//
// The profile is runtime/pprof's gzipped profile.proto; only the fields
// needed here are decoded: samples (location ids, values), locations (id,
// lines), functions (id, name) and the string table.
func profileShares(gz []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	if len(gz) == 0 {
		return shares, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return shares, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return shares, err
	}

	type sample struct {
		loc   uint64
		value int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{} // location id -> innermost function id
	funcName := map[uint64]int64{} // function id -> string index
	var strs []string

	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return pbRepeated(v, b, func(x uint64) { locs = append(locs, x) })
				case 2:
					return pbRepeated(v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if err == nil && len(locs) > 0 && len(vals) > 0 {
				// The last value of a CPU profile sample is CPU nanoseconds.
				samples = append(samples, sample{locs[0], vals[len(vals)-1]})
			}
			return err
		case 4: // Location
			var id, fn uint64
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if fn == 0 {
						return pbFields(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return shares, fmt.Errorf("decode profile: %w", err)
	}

	var total float64
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.loc]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		shares[bucketOf(packageOf(name))] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

// packageOf returns the import path of a symbol such as
// "multikernel/internal/cache.(*System).fill".
func packageOf(sym string) string {
	slash := strings.LastIndex(sym, "/")
	if dot := strings.Index(sym[slash+1:], "."); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

func bucketOf(pkg string) string {
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if name, ok := strings.CutPrefix(pkg, "multikernel/internal/"); ok {
		for _, b := range hostBuckets {
			if name == b {
				return b
			}
		}
	}
	return "other"
}

var errTruncated = errors.New("truncated protobuf")

// pbFields calls fn for each field of a protobuf message: v holds varint and
// fixed values, b the bytes of length-delimited ones.
func pbFields(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := pbVarint(buf)
		if n == 0 {
			return errTruncated
		}
		buf = buf[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = pbVarint(buf)
			if n == 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
		case 2:
			l, n := pbVarint(buf)
			if n == 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated decodes a repeated integer field in either encoding: one varint
// (b == nil) or a packed run of varints.
func pbRepeated(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		fn(x)
		b = b[n:]
	}
	return nil
}

// pbVarint decodes a varint, returning its byte length (0 if malformed).
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
