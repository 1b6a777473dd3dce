package relation

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary codec for RowSet — the unit of provenance on the shard wire.
//
// Layout (all integers varint-encoded unless noted):
//
//	byte 0   codec version (rowSetCodecVersion)
//	byte 1   encoding tag (encSparse / encRuns / encDense)
//	uvarint  universe n
//	payload  per encoding:
//	  sparse  uvarint count, then count deltas: the first is elems[0],
//	          each later one is elems[i] - elems[i-1] (strictly positive)
//	  runs    uvarint count, then per run uvarint(lo - prevHi) and
//	          uvarint(hi - lo); prevHi starts at 0, later gaps are
//	          strictly positive (runs are disjoint and non-adjacent)
//	  dense   (n+63)/64 raw little-endian 8-byte words
//
// The encoding tag is part of the format on purpose: a run-encoded set
// costs O(#runs) bytes on the wire exactly as it does in memory, and the
// decoder reconstructs the same representation, so shipping a shard task
// never forces a bitmap materialisation on either side. Dense stays raw
// words (not varint) so the dense wire size IS the bitmap size — the
// baseline the compact encodings are measured against.
//
// DecodeRowSet rejects unknown versions and tags with an error rather
// than a panic: a coordinator talking to a newer or older worker must be
// able to fall back to a local search.
const rowSetCodecVersion = 1

// RowSetCodecVersion is the wire version AppendBinary emits. Peers that
// see a different version must treat the payload as undecodable.
const RowSetCodecVersion = rowSetCodecVersion

// AppendBinary appends the versioned binary form of s to buf and returns
// the extended slice. The receiver is not modified; the emitted encoding
// tag matches the in-memory encoding.
func (s *RowSet) AppendBinary(buf []byte) []byte {
	buf = append(buf, rowSetCodecVersion, s.enc)
	buf = binary.AppendUvarint(buf, uint64(s.n))
	switch s.enc {
	case encSparse:
		buf = binary.AppendUvarint(buf, uint64(len(s.elems)))
		prev := int32(0)
		for i, e := range s.elems {
			if i == 0 {
				buf = binary.AppendUvarint(buf, uint64(e))
			} else {
				buf = binary.AppendUvarint(buf, uint64(e-prev))
			}
			prev = e
		}
	case encRuns:
		buf = binary.AppendUvarint(buf, uint64(len(s.runs)))
		prevHi := int32(0)
		for _, r := range s.runs {
			buf = binary.AppendUvarint(buf, uint64(r.lo-prevHi))
			buf = binary.AppendUvarint(buf, uint64(r.hi-r.lo))
			prevHi = r.hi
		}
	default: // dense
		for _, w := range s.words {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	return buf
}

// DecodeRowSet decodes one RowSet from the front of data, returning the
// set, the number of bytes consumed, and an error if the payload is
// truncated, malformed, or from an unknown codec version. The returned
// set shares no storage with data and carries the same encoding the
// producer had.
func DecodeRowSet(data []byte) (*RowSet, int, error) {
	if len(data) < 2 {
		return nil, 0, fmt.Errorf("relation: rowset codec: short header (%d bytes)", len(data))
	}
	if data[0] != rowSetCodecVersion {
		return nil, 0, fmt.Errorf("relation: rowset codec: unsupported version %d (want %d)", data[0], rowSetCodecVersion)
	}
	enc := data[1]
	if enc != encSparse && enc != encRuns && enc != encDense {
		return nil, 0, fmt.Errorf("relation: rowset codec: unknown encoding tag %d", enc)
	}
	pos := 2
	un, k := binary.Uvarint(data[pos:])
	if k <= 0 || un > math.MaxInt64 {
		return nil, 0, fmt.Errorf("relation: rowset codec: bad universe")
	}
	pos += k
	n := int(un)
	if enc != encDense && !compressible(n) {
		return nil, 0, fmt.Errorf("relation: rowset codec: universe %d requires dense encoding", n)
	}
	s := &RowSet{n: n, enc: enc}
	switch enc {
	case encSparse:
		cnt, k := binary.Uvarint(data[pos:])
		if k <= 0 || cnt > uint64(n) {
			return nil, 0, fmt.Errorf("relation: rowset codec: bad sparse count")
		}
		pos += k
		if cnt > 0 {
			s.elems = make([]int32, 0, cnt)
			prev := int64(-1)
			for i := uint64(0); i < cnt; i++ {
				d, k := binary.Uvarint(data[pos:])
				if k <= 0 {
					return nil, 0, fmt.Errorf("relation: rowset codec: truncated sparse delta %d", i)
				}
				pos += k
				if d > math.MaxInt32 {
					return nil, 0, fmt.Errorf("relation: rowset codec: sparse delta %d overflows int32", i)
				}
				var e int64
				if i == 0 {
					e = int64(d)
				} else {
					if d == 0 {
						return nil, 0, fmt.Errorf("relation: rowset codec: zero sparse delta %d", i)
					}
					e = prev + int64(d)
				}
				if e >= int64(n) {
					return nil, 0, fmt.Errorf("relation: rowset codec: sparse member %d outside universe %d", e, n)
				}
				s.elems = append(s.elems, int32(e))
				prev = e
			}
		}
	case encRuns:
		cnt, k := binary.Uvarint(data[pos:])
		if k <= 0 || cnt > uint64(n) {
			return nil, 0, fmt.Errorf("relation: rowset codec: bad run count")
		}
		pos += k
		if cnt > 0 {
			s.runs = make([]span, 0, cnt)
			prevHi := int64(0)
			for i := uint64(0); i < cnt; i++ {
				gap, k := binary.Uvarint(data[pos:])
				if k <= 0 {
					return nil, 0, fmt.Errorf("relation: rowset codec: truncated run gap %d", i)
				}
				pos += k
				ln, k := binary.Uvarint(data[pos:])
				if k <= 0 {
					return nil, 0, fmt.Errorf("relation: rowset codec: truncated run length %d", i)
				}
				pos += k
				if gap > math.MaxInt32 || ln > math.MaxInt32 {
					return nil, 0, fmt.Errorf("relation: rowset codec: run %d overflows int32", i)
				}
				if i > 0 && gap == 0 {
					return nil, 0, fmt.Errorf("relation: rowset codec: adjacent runs at %d", i)
				}
				if ln == 0 {
					return nil, 0, fmt.Errorf("relation: rowset codec: empty run %d", i)
				}
				lo := prevHi + int64(gap)
				hi := lo + int64(ln)
				if hi > int64(n) {
					return nil, 0, fmt.Errorf("relation: rowset codec: run [%d,%d) beyond universe %d", lo, hi, n)
				}
				s.runs = append(s.runs, span{int32(lo), int32(hi)})
				prevHi = hi
			}
		}
	default: // dense
		// Word-count arithmetic stays in uint64 so an adversarial universe
		// near MaxInt64 cannot overflow into a small allocation.
		words := int((un + 63) / 64)
		if uw := (un + 63) / 64; uw > uint64(len(data)-pos)/8 {
			return nil, 0, fmt.Errorf("relation: rowset codec: truncated dense payload (%d of %d words)", (len(data)-pos)/8, uw)
		}
		if words > 0 {
			s.words = make([]uint64, words)
			for i := range s.words {
				s.words[i] = binary.LittleEndian.Uint64(data[pos:])
				pos += 8
			}
		}
	}
	if err := s.check(); err != nil {
		return nil, 0, fmt.Errorf("relation: rowset codec: %w", err)
	}
	return s, pos, nil
}
