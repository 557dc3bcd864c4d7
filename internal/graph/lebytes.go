package graph

import (
	"encoding/binary"
	"unsafe"
)

// portableBytes turns the byte view off. It is false on every little-endian
// host; tests set it to hold the encode/decode fallback to the view.
var portableBytes = binary.NativeEndian.Uint16([]byte{1, 0}) != 1

// leView returns s's own memory as its little-endian byte image — the one
// place that knows raw container sections are laid out exactly as their
// in-memory arrays (DESIGN.md §9): a section read into the view fills s,
// and checksumming or writing the view touches no second copy. ok is false
// on a big-endian host, where callers encode or decode instead.
func leView[T uint32 | uint64](s []T) (b []byte, ok bool) {
	if portableBytes {
		return nil, false
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(*new(T)))), true
}

// LEBytes returns the little-endian byte image of s, the bytes a raw
// container section holds and the integrity sums are defined over. It is
// s's own memory where that is the image — do not write it — and an encoded
// copy elsewhere.
func LEBytes[T uint32 | uint64](s []T) []byte {
	if b, ok := leView(s); ok {
		return b
	}
	b := make([]byte, binary.Size(s))
	switch s := any(s).(type) {
	case []uint32:
		for i, x := range s {
			binary.LittleEndian.PutUint32(b[4*i:], x)
		}
	case []uint64:
		for i, x := range s {
			binary.LittleEndian.PutUint64(b[8*i:], x)
		}
	}
	return b
}

// decodeLE is LEBytes' inverse on a prefix: it fills s from as many whole
// elements as b holds.
func decodeLE[T uint32 | uint64](s []T, b []byte) {
	switch s := any(s).(type) {
	case []uint32:
		for i := range s[:len(b)/4] {
			s[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
	case []uint64:
		for i := range s[:len(b)/8] {
			s[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
}
