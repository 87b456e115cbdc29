package harness

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
)

// Binary wire codec (PWB1): the one codec for shipping results between
// processes. The campaign dispatch protocol uses it for batched
// shard-result uploads; anything that moves harness results over a
// network or into an artifact store should use the same framing so
// payloads stay mutually readable. Result payloads are histogram-heavy —
// many short outcome-key strings with small counts — so the encoding is
// built around three ideas instead of general-purpose compression:
//
//   - varints for every integer (counts, ticks, lengths);
//   - front-coding for sorted histogram keys (each key stores only the
//     length of the prefix it shares with its predecessor plus the new
//     suffix);
//   - string interning for values that repeat across a batched upload
//     (test names, tool names, presets, notes) — the first occurrence
//     ships the bytes, later ones a one-byte table reference.
//
// The whole body is wrapped in a CRC-framed envelope, so truncation or
// bit damage in flight is detected structurally instead of surfacing as
// a confusing decode error deep inside a payload:
//
//	magic "PWB1" | uvarint bodyLen | body | crc32c(body) (4 bytes LE)
//
// Framing and primitives live here; payload layouts belong to the types
// that own them (Litmus7Result below, campaign.CompleteRequest in
// internal/campaign). The codec has no streams and no compressor state,
// so encoding is a pure append loop and decoding a pure scan — both
// allocation-free apart from the decoded values themselves.

// WireContentTypeBinary labels PWB1-framed binary payloads in HTTP
// requests.
const WireContentTypeBinary = "application/x-perple-wire"

// DefaultWireLimit caps how many bytes one wire payload may decode to
// when the caller does not supply its own cap. Result payloads are
// megabytes at the very worst; the cap exists so a crafted payload — a
// front-coding expansion bomb — cannot balloon a dispatcher's memory.
const DefaultWireLimit = 256 << 20

// ErrWireTooLarge reports a payload that would decode past the
// configured cap. It wraps the size details; match with errors.Is.
var ErrWireTooLarge = errors.New("harness: wire payload exceeds decode limit")

// wireBinMagic opens every binary frame; the trailing byte is the
// format version.
var wireBinMagic = [4]byte{'P', 'W', 'B', '1'}

// crcTable is the Castagnoli polynomial, hardware-accelerated on
// amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrWireFrame reports a structurally damaged binary frame: bad magic,
// truncated body, or CRC mismatch. Transports treat it as bytes lost in
// flight (retryable), not as a protocol disagreement.
var ErrWireFrame = errors.New("harness: damaged binary wire frame")

// BinaryWirer is a payload that owns a PWB1 body layout.
type BinaryWirer interface {
	// AppendWireBody appends the payload's body encoding.
	AppendWireBody(w *WireWriter)
	// DecodeWireBody reads the payload back from a body scan.
	DecodeWireBody(r *WireReader) error
}

// EncodeWireBinary renders v as a CRC-framed PWB1 payload, appending to
// buf (which may be nil; pass a recycled slice to amortize
// allocations).
func EncodeWireBinary(buf []byte, v BinaryWirer) []byte {
	var w WireWriter
	w.buf = append(buf[:0], wireBinMagic[:]...)
	// Reserve a max-width varint for the body length, encode the body in
	// place, then write the real length and close the gap with one
	// memmove — single pass, no second buffer.
	lenPos := len(w.buf)
	var pad [binary.MaxVarintLen64]byte
	w.buf = append(w.buf, pad[:]...)
	bodyStart := len(w.buf)
	v.AppendWireBody(&w)
	bodyLen := len(w.buf) - bodyStart
	n := binary.PutUvarint(w.buf[lenPos:], uint64(bodyLen))
	copy(w.buf[lenPos+n:], w.buf[bodyStart:])
	w.buf = w.buf[:lenPos+n+bodyLen]
	crc := crc32.Checksum(w.buf[lenPos+n:], crcTable)
	return binary.LittleEndian.AppendUint32(w.buf, crc)
}

// DecodeWireBinary verifies data's frame (magic, length, CRC) and
// decodes the body into v. limit caps the total bytes the decoded value
// may allocate (strings, histogram keys, slices) — front-coding can
// expand far beyond the wire size, so the cap is enforced on decoded
// bytes, not input bytes; limit ≤ 0 selects DefaultWireLimit. Exceeding
// it returns an error wrapping ErrWireTooLarge.
func DecodeWireBinary(data []byte, v BinaryWirer, limit int) error {
	if limit <= 0 {
		limit = DefaultWireLimit
	}
	if len(data) < len(wireBinMagic)+1+4 || [4]byte(data[:4]) != wireBinMagic {
		return fmt.Errorf("%w: missing PWB1 magic", ErrWireFrame)
	}
	rest := data[4:]
	bodyLen, n := binary.Uvarint(rest)
	if n <= 0 || bodyLen > uint64(len(rest)-n) {
		return fmt.Errorf("%w: truncated (declared body %d bytes, %d available)", ErrWireFrame, bodyLen, max(0, len(rest)-n))
	}
	body := rest[n : n+int(bodyLen)]
	trailer := rest[n+int(bodyLen):]
	if len(trailer) < 4 {
		return fmt.Errorf("%w: truncated before CRC", ErrWireFrame)
	}
	if len(trailer) > 4 {
		return fmt.Errorf("harness: trailing data after wire payload")
	}
	want := binary.LittleEndian.Uint32(trailer)
	if got := crc32.Checksum(body, crcTable); got != want {
		return fmt.Errorf("%w: CRC mismatch (got %08x, want %08x)", ErrWireFrame, got, want)
	}
	r := WireReader{buf: body, budget: limit}
	if err := v.DecodeWireBody(&r); err != nil {
		return err
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("harness: %d unread bytes after wire payload body", len(r.buf)-r.pos)
	}
	return nil
}

// WireFrameLen reports the total byte length of the PWB1 frame at the
// start of data, when data begins with a complete frame (magic, length
// varint, declared body, CRC trailer) lying entirely within data. Only
// the framing envelope is validated — callers that need the CRC and
// body checked pass the frame slice to DecodeWireBinary. This is the
// scan primitive for files holding a sequence of frames (the dispatch
// WAL): walk frame to frame until it reports false, which marks the
// torn tail.
func WireFrameLen(data []byte) (int, bool) {
	if len(data) < len(wireBinMagic)+1+4 || [4]byte(data[:4]) != wireBinMagic {
		return 0, false
	}
	bodyLen, n := binary.Uvarint(data[len(wireBinMagic):])
	if n <= 0 || bodyLen > uint64(len(data)) {
		return 0, false
	}
	total := len(wireBinMagic) + n + int(bodyLen) + 4
	if total > len(data) {
		return 0, false
	}
	return total, true
}

// WireWriter builds a PWB1 body: an append-only byte slice plus the
// string-interning table shared by every PutString in one payload.
type WireWriter struct {
	buf    []byte
	intern map[string]int
}

// PutUvarint appends an unsigned varint.
func (w *WireWriter) PutUvarint(u uint64) { w.buf = binary.AppendUvarint(w.buf, u) }

// PutVarint appends a zigzag-encoded signed varint.
func (w *WireWriter) PutVarint(i int64) { w.buf = binary.AppendVarint(w.buf, i) }

// PutString appends s with interning: a repeated string costs one small
// table reference instead of its bytes.
func (w *WireWriter) PutString(s string) {
	if id, ok := w.intern[s]; ok {
		w.PutUvarint(uint64(id + 1))
		return
	}
	w.PutUvarint(0)
	w.PutUvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
	if w.intern == nil {
		w.intern = make(map[string]int)
	}
	w.intern[s] = len(w.intern)
}

// PutHistogram appends a string→count map with sorted, front-coded
// keys. Sorting makes the encoding deterministic (and is what makes
// front-coding effective); scratch carries the key slice across calls
// so batched payloads sort without re-allocating.
func (w *WireWriter) PutHistogram(hist map[string]int64, scratch *[]string) {
	keys := (*scratch)[:0]
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	*scratch = keys
	w.PutUvarint(uint64(len(keys)))
	prev := ""
	for _, k := range keys {
		p := commonPrefix(prev, k)
		w.PutUvarint(uint64(p))
		w.PutUvarint(uint64(len(k) - p))
		w.buf = append(w.buf, k[p:]...)
		w.PutVarint(hist[k])
		prev = k
	}
}

// PutInt64s appends a signed-varint sequence.
func (w *WireWriter) PutInt64s(xs []int64) {
	w.PutUvarint(uint64(len(xs)))
	for _, x := range xs {
		w.PutVarint(x)
	}
}

// PutStrings appends a string slice (interned per string).
func (w *WireWriter) PutStrings(xs []string) {
	w.PutUvarint(uint64(len(xs)))
	for _, s := range xs {
		w.PutString(s)
	}
}

func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// WireReader scans a PWB1 body. Every length read from the wire is
// validated against the remaining input before use, and every byte the
// decoded value allocates is charged against the budget, so a hostile
// payload can neither over-read nor balloon memory.
type WireReader struct {
	buf    []byte
	pos    int
	intern []string
	budget int
}

var errWireShort = fmt.Errorf("%w: body over-read", ErrWireFrame)

// charge debits n decoded bytes from the budget.
func (r *WireReader) charge(n int) error {
	r.budget -= n
	if r.budget < 0 {
		return fmt.Errorf("%w: binary payload decodes past the cap", ErrWireTooLarge)
	}
	return nil
}

// Uvarint reads an unsigned varint.
func (r *WireReader) Uvarint() (uint64, error) {
	u, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, errWireShort
	}
	r.pos += n
	return u, nil
}

// Varint reads a zigzag-encoded signed varint.
func (r *WireReader) Varint() (int64, error) {
	i, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		return 0, errWireShort
	}
	r.pos += n
	return i, nil
}

// Int reads an unsigned varint that must fit a non-negative int.
func (r *WireReader) Int() (int, error) {
	u, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if u > uint64(len(r.buf)) {
		// Any in-band length beyond the body size is structurally bogus.
		return 0, fmt.Errorf("%w: length %d exceeds body", ErrWireFrame, u)
	}
	return int(u), nil
}

// String reads an interned string.
func (r *WireReader) String() (string, error) {
	ref, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if ref > 0 {
		if ref > uint64(len(r.intern)) {
			return "", fmt.Errorf("%w: intern reference %d out of range", ErrWireFrame, ref)
		}
		return r.intern[ref-1], nil
	}
	n, err := r.Int()
	if err != nil {
		return "", err
	}
	if r.pos+n > len(r.buf) {
		return "", errWireShort
	}
	if err := r.charge(n); err != nil {
		return "", err
	}
	s := string(r.buf[r.pos : r.pos+n])
	r.pos += n
	r.intern = append(r.intern, s)
	return s, nil
}

// Histogram reads a front-coded map; an empty map decodes as nil, the
// same normalization encoding/json's omitempty applies, so both codecs
// round-trip to identical values.
func (r *WireReader) Histogram() (map[string]int64, error) {
	n, err := r.Int()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	hist := make(map[string]int64, n)
	prev := ""
	for i := 0; i < n; i++ {
		p, err := r.Int()
		if err != nil {
			return nil, err
		}
		if p > len(prev) {
			return nil, fmt.Errorf("%w: key prefix %d longer than predecessor", ErrWireFrame, p)
		}
		sn, err := r.Int()
		if err != nil {
			return nil, err
		}
		if r.pos+sn > len(r.buf) {
			return nil, errWireShort
		}
		if err := r.charge(p + sn); err != nil {
			return nil, err
		}
		key := prev[:p] + string(r.buf[r.pos:r.pos+sn])
		r.pos += sn
		count, err := r.Varint()
		if err != nil {
			return nil, err
		}
		hist[key] = count
		prev = key
	}
	return hist, nil
}

// Int64s reads a signed-varint sequence; empty decodes as nil.
func (r *WireReader) Int64s() ([]int64, error) {
	n, err := r.Int()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if err := r.charge(8 * n); err != nil {
		return nil, err
	}
	xs := make([]int64, n)
	for i := range xs {
		if xs[i], err = r.Varint(); err != nil {
			return nil, err
		}
	}
	return xs, nil
}

// Strings reads a string slice; empty decodes as nil.
func (r *WireReader) Strings() ([]string, error) {
	n, err := r.Int()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if err := r.charge(16 * n); err != nil {
		return nil, err
	}
	xs := make([]string, n)
	for i := range xs {
		if xs[i], err = r.String(); err != nil {
			return nil, err
		}
	}
	return xs, nil
}

// AppendWireBody encodes the result's mergeable tallies: iteration and
// target counts, ticks, the outcome histogram, and the
// trace-verification observer tallies. Test, Mode, Trace, and Wall are
// deliberately not wire fields — the corpus travels separately, traces
// are local diagnostics, and Wall/TraceVerifyNs are host-clock values
// accounted where the work ran (mirroring the JSON codec, which drops
// them the same way).
func (res *Litmus7Result) AppendWireBody(w *WireWriter) {
	w.PutVarint(int64(res.N))
	w.PutVarint(res.TargetCount)
	w.PutVarint(res.Ticks)
	w.PutInt64s(res.OutcomeCounts)
	var scratch []string
	w.PutHistogram(res.Histogram, &scratch)
	w.PutVarint(res.TracesVerified)
	w.PutVarint(res.TraceViolations)
	w.PutStrings(res.TraceReports)
}

// DecodeWireBody reads the tallies written by AppendWireBody.
func (res *Litmus7Result) DecodeWireBody(r *WireReader) error {
	n, err := r.Varint()
	if err != nil {
		return err
	}
	res.N = int(n)
	if res.TargetCount, err = r.Varint(); err != nil {
		return err
	}
	if res.Ticks, err = r.Varint(); err != nil {
		return err
	}
	if res.OutcomeCounts, err = r.Int64s(); err != nil {
		return err
	}
	if res.Histogram, err = r.Histogram(); err != nil {
		return err
	}
	if res.TracesVerified, err = r.Varint(); err != nil {
		return err
	}
	if res.TraceViolations, err = r.Varint(); err != nil {
		return err
	}
	res.TraceReports, err = r.Strings()
	return err
}
