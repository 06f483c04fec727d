package proto

import (
	"encoding/binary"
	"fmt"
)

// GetStatus classifies a Get outcome on the wire exactly as
// live.Cache.Get reports it (miss/hit/fill), so the transports are
// distinguishable only by framing, never by semantics.
type GetStatus byte

const (
	StatusMiss GetStatus = 0 // not resident, no loader value
	StatusHit  GetStatus = 1 // resident
	StatusFill GetStatus = 2 // loader backfill: value returned, hit=false
)

// String names the status as the request journal does (probe.Outcome*).
func (s GetStatus) String() string {
	switch s {
	case StatusMiss:
		return "miss"
	case StatusHit:
		return "hit"
	case StatusFill:
		return "fill"
	}
	return fmt.Sprintf("GetStatus(%d)", byte(s))
}

// GetResult is one key's Get outcome: the decoded form of a GET
// response element. In results a Client returns, Value is nil exactly
// when Status is StatusMiss — a zero-length value on a hit or fill
// decodes as a non-nil empty slice. (On the encode side
// nil and empty are interchangeable: both frame as length 0.)
type GetResult struct {
	Status GetStatus
	Value  []byte
}

// KV is one key-value pair of an MPUT batch.
type KV struct {
	Key   string
	Value []byte
}

// appendString appends a uvarint length-prefixed byte string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendBytes appends a uvarint length-prefixed byte slice.
func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// parser consumes a payload left to right, validating every declared
// length against the configured limit and the bytes remaining before
// touching them.
type parser struct {
	buf []byte
}

// uvarint decodes one uvarint.
func (p *parser) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(p.buf)
	if n <= 0 {
		return 0, wireErrf(ErrPayload, "truncated %s uvarint", what)
	}
	p.buf = p.buf[n:]
	return v, nil
}

// chunk decodes one length-prefixed byte string of at most max bytes.
// The returned slice aliases the payload. It runs once per key and per
// value on the serving path, so error text is built only on error.
func (p *parser) chunk(what string, max int) ([]byte, error) {
	n, w := binary.Uvarint(p.buf)
	if w <= 0 {
		return nil, wireErrf(ErrPayload, "truncated %s length uvarint", what)
	}
	p.buf = p.buf[w:]
	if n > uint64(max) {
		return nil, wireErrf(ErrTooLarge, "%s length %d > max %d", what, n, max)
	}
	if n > uint64(len(p.buf)) {
		return nil, wireErrf(ErrPayload, "%s length %d exceeds remaining payload %d", what, n, len(p.buf))
	}
	b := p.buf[:n]
	p.buf = p.buf[n:]
	return b, nil
}

// count decodes a batch element count (≤ MaxBatch).
func (p *parser) count() (int, error) {
	n, err := p.uvarint("batch count")
	if err != nil {
		return 0, err
	}
	if n > MaxBatch {
		return 0, wireErrf(ErrTooLarge, "batch count %d > max %d", n, MaxBatch)
	}
	return int(n), nil
}

// done verifies the payload was consumed exactly.
func (p *parser) done() error {
	if len(p.buf) != 0 {
		return wireErrf(ErrPayload, "%d trailing bytes", len(p.buf))
	}
	return nil
}

// byte1 decodes a single fixed byte (a status).
func (p *parser) byte1(what string) (byte, error) {
	if len(p.buf) == 0 {
		return 0, wireErrf(ErrPayload, "missing %s byte", what)
	}
	b := p.buf[0]
	p.buf = p.buf[1:]
	return b, nil
}

// --- GET ---

// AppendGetReq appends a GET request payload (one key).
func AppendGetReq(dst []byte, key string) ([]byte, error) {
	if len(key) > MaxKey {
		return nil, wireErrf(ErrTooLarge, "key length %d > max %d", len(key), MaxKey)
	}
	return appendString(dst, key), nil
}

// parseGetReq decodes a GET request payload. The key aliases the
// payload: the server hands it to the backend borrowed and never
// retains it (see ByteBackend).
func parseGetReq(payload []byte) (key []byte, err error) {
	p := parser{payload}
	if key, err = p.chunk("key", MaxKey); err != nil {
		return nil, err
	}
	return key, p.done()
}

// appendGetItem appends one Get outcome (status, then value unless
// miss) — the element of both GET and MGET responses.
func appendGetItem(dst []byte, res GetResult) []byte {
	dst = append(dst, byte(res.Status))
	if res.Status == StatusMiss {
		return dst
	}
	return appendBytes(dst, res.Value)
}

// parseGetItem decodes one Get outcome; the value aliases the payload.
func (p *parser) parseGetItem() (GetResult, error) {
	s, err := p.byte1("get status")
	if err != nil {
		return GetResult{}, err
	}
	st := GetStatus(s)
	if st > StatusFill {
		return GetResult{}, wireErrf(ErrPayload, "invalid get status %d", s)
	}
	if st == StatusMiss {
		return GetResult{Status: st}, nil
	}
	v, err := p.chunk("value", MaxValue)
	if err != nil {
		return GetResult{}, err
	}
	return GetResult{Status: st, Value: v}, nil
}

// AppendGetResp appends a GET response payload.
func AppendGetResp(dst []byte, res GetResult) []byte { return appendGetItem(dst, res) }

// parseGetResp decodes a GET response payload; the value aliases the
// payload.
func parseGetResp(payload []byte) (GetResult, error) {
	p := parser{payload}
	res, err := p.parseGetItem()
	if err != nil {
		return GetResult{}, err
	}
	if err := p.done(); err != nil {
		return GetResult{}, err
	}
	return res, nil
}

// --- PUT ---

// AppendPutReq appends a PUT request payload (key, value).
func AppendPutReq(dst []byte, key string, val []byte) ([]byte, error) {
	if len(key) > MaxKey {
		return nil, wireErrf(ErrTooLarge, "key length %d > max %d", len(key), MaxKey)
	}
	if len(val) > MaxValue {
		return nil, wireErrf(ErrTooLarge, "value length %d > max %d", len(val), MaxValue)
	}
	return appendBytes(appendString(dst, key), val), nil
}

// parsePutReq decodes a PUT request payload; key and value alias the
// payload (the cache copies both on store).
func parsePutReq(payload []byte) (key, val []byte, err error) {
	p := parser{payload}
	if key, err = p.chunk("key", MaxKey); err != nil {
		return nil, nil, err
	}
	if val, err = p.chunk("value", MaxValue); err != nil {
		return nil, nil, err
	}
	return key, val, p.done()
}

// AppendPutResp appends a PUT response payload (1 = inserted,
// 0 = overwrote a resident key).
func AppendPutResp(dst []byte, inserted bool) []byte {
	if inserted {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// ParsePutResp decodes a PUT response payload.
func ParsePutResp(payload []byte) (inserted bool, err error) {
	p := parser{payload}
	b, err := p.byte1("put status")
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, wireErrf(ErrPayload, "invalid put status %d", b)
	}
	if err := p.done(); err != nil {
		return false, err
	}
	return b == 1, nil
}

// --- MGET ---

// AppendMGetReq appends an MGET request payload (count, then keys).
func AppendMGetReq(dst []byte, keys []string) ([]byte, error) {
	if len(keys) > MaxBatch {
		return nil, wireErrf(ErrTooLarge, "batch count %d > max %d", len(keys), MaxBatch)
	}
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		if len(k) > MaxKey {
			return nil, wireErrf(ErrTooLarge, "key length %d > max %d", len(k), MaxKey)
		}
		dst = appendString(dst, k)
	}
	return dst, nil
}

// AppendMGetResp appends an MGET response payload (count, then
// per-key Get outcomes in request order).
func AppendMGetResp(dst []byte, results []GetResult) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(results)))
	for _, r := range results {
		dst = appendGetItem(dst, r)
	}
	return dst
}

// parseMGetResp decodes an MGET response payload, appending its results
// to dst (the client's reply scratch); values alias the payload.
func parseMGetResp(dst []GetResult, payload []byte) ([]GetResult, error) {
	p := parser{payload}
	n, err := p.count()
	if err != nil {
		return dst, err
	}
	for i := 0; i < n; i++ {
		r, err := p.parseGetItem()
		if err != nil {
			return dst, err
		}
		dst = append(dst, r)
	}
	return dst, p.done()
}

// --- MPUT ---

// AppendMPutReq appends an MPUT request payload (count, then key+value
// pairs).
func AppendMPutReq(dst []byte, kvs []KV) ([]byte, error) {
	if len(kvs) > MaxBatch {
		return nil, wireErrf(ErrTooLarge, "batch count %d > max %d", len(kvs), MaxBatch)
	}
	dst = binary.AppendUvarint(dst, uint64(len(kvs)))
	for _, kv := range kvs {
		if len(kv.Key) > MaxKey {
			return nil, wireErrf(ErrTooLarge, "key length %d > max %d", len(kv.Key), MaxKey)
		}
		if len(kv.Value) > MaxValue {
			return nil, wireErrf(ErrTooLarge, "value length %d > max %d", len(kv.Value), MaxValue)
		}
		dst = appendBytes(appendString(dst, kv.Key), kv.Value)
	}
	return dst, nil
}

// AppendMPutResp appends an MPUT response payload (count, then per-key
// inserted flags in request order).
func AppendMPutResp(dst []byte, inserted []bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(inserted)))
	for _, ins := range inserted {
		if ins {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// ParseMPutResp decodes an MPUT response payload, appending its
// inserted flags to dst.
func ParseMPutResp(dst []bool, payload []byte) ([]bool, error) {
	p := parser{payload}
	n, err := p.count()
	if err != nil {
		return dst, err
	}
	for i := 0; i < n; i++ {
		b, err := p.byte1("mput status")
		if err != nil {
			return dst, err
		}
		if b > 1 {
			return dst, wireErrf(ErrPayload, "invalid mput status %d", b)
		}
		dst = append(dst, b == 1)
	}
	return dst, p.done()
}

// cloneBytes copies b. nil stays nil and a non-nil empty slice stays
// non-nil, preserving the Value-nil-iff-miss contract for zero-length
// values (append to a nil slice would collapse empty to nil).
func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append(make([]byte, 0, len(b)), b...)
}
