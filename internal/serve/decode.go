package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"

	"tevot/internal/workload"
)

// Request decode. A /v1/predict body is read whole into a pooled
// buffer and parsed in one pass when it is in the canonical form: one
// object whose members are "voltage", "temperature", "pairs" and
// "clocks" (each at most once, exact lowercase, no escapes), numbers in
// strict JSON grammar, and every pair an object with one "a" and one
// "b" (or "A"/"B", as json.Marshal writes OperandPair) holding plain
// decimal integers up to 2^32-1. Whitespace may sit wherever JSON
// allows it, and bytes after the object are ignored, as
// json.Decoder.Decode ignores them. Anything else — escaped or
// case-variant keys, null, unknown or duplicate members, a/b written
// as 1.0, 1e0 or 01, malformed input — goes to the reference decode
// (encoding/json with DisallowUnknownFields) on the same bytes, which
// alone decides those inputs, so statuses and error messages are
// exactly the reference's. FuzzPredictDecode holds the one-pass parser
// to the reference on every input it accepts.

// maxPooledBytes caps the buffers a decoder returns to the pool, so one
// body near MaxBodyBytes cannot stay pinned in it.
const maxPooledBytes = 256 << 10

// decoder is the pooled scratch of one request decode: the body bytes
// and the pairs the one-pass parser collects before copying them out.
type decoder struct {
	body  bytes.Buffer
	pairs []workload.OperandPair
}

var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

// readPredict reads a capped request body and decodes it. A read error
// (http.MaxBytesError past the cap) is returned as is.
func readPredict(r io.Reader) (predictRequest, error) {
	d := decoderPool.Get().(*decoder)
	defer func() {
		if d.body.Cap() <= maxPooledBytes && cap(d.pairs)*8 <= maxPooledBytes {
			decoderPool.Put(d)
		}
	}()
	d.body.Reset()
	if _, err := d.body.ReadFrom(r); err != nil {
		return predictRequest{}, err
	}
	return d.decode(d.body.Bytes())
}

// decode parses body in one pass, or falls back to the reference
// decode (counted in serve.decode_fallback) outside the canonical form.
func (d *decoder) decode(body []byte) (predictRequest, error) {
	if req, ok := d.parse(body); ok {
		return req, nil
	}
	mDecodeFallback.Inc()
	return decodeReference(body)
}

// decodeReference is encoding/json's strict decode of the first JSON
// value in body.
func decodeReference(body []byte) (predictRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req predictRequest
	err := dec.Decode(&req)
	return req, err
}

// parse is the one-pass decode; ok is false for any body outside the
// canonical form. The returned slices never alias body or d.
func (d *decoder) parse(body []byte) (req predictRequest, ok bool) {
	p := parser{b: body}
	var seen [4]bool // voltage, temperature, pairs, clocks
	ok = p.object(func(key []byte) bool {
		var member int
		var ok bool
		switch string(key) {
		case "voltage":
			req.Voltage, ok = p.float()
		case "temperature":
			member = 1
			req.Temperature, ok = p.float()
		case "pairs":
			member = 2
			req.Pairs, ok = p.pairs(d)
		case "clocks":
			member = 3
			req.Clocks, ok = p.floats()
		}
		if !ok || seen[member] {
			return false
		}
		seen[member] = true
		return true
	})
	return req, ok
}

// parser is a cursor over a request body.
type parser struct {
	b []byte
	i int
}

// peek skips whitespace and returns the next byte without consuming it
// (0 at the end of the body).
func (p *parser) peek() byte {
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// next is peek, consuming the byte.
func (p *parser) next() byte {
	c := p.peek()
	if p.i < len(p.b) {
		p.i++
	}
	return c
}

// object reads an object, calling member with each member's key once
// the cursor is at its value; member reads the value, or returns false.
func (p *parser) object(member func(key []byte) bool) bool {
	if p.next() != '{' {
		return false
	}
	if p.peek() == '}' {
		p.i++
		return true
	}
	for {
		key, ok := p.key()
		if !ok || !member(key) {
			return false
		}
		switch p.next() {
		case ',':
		case '}':
			return true
		default:
			return false
		}
	}
}

// array reads an array, calling elem to read each element.
func (p *parser) array(elem func() bool) bool {
	if p.next() != '[' {
		return false
	}
	if p.peek() == ']' {
		p.i++
		return true
	}
	for {
		if !elem() {
			return false
		}
		switch p.next() {
		case ',':
		case ']':
			return true
		default:
			return false
		}
	}
}

// key reads a member name and its colon. The name must be a string
// without escapes or control bytes.
func (p *parser) key() ([]byte, bool) {
	if p.next() != '"' {
		return nil, false
	}
	for lo := p.i; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			key := p.b[lo:p.i]
			p.i++
			return key, p.next() == ':'
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// number reads a token in the strict JSON number grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (p *parser) number() ([]byte, bool) {
	p.peek()
	b, lo, i := p.b, p.i, p.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	p.i = i
	return b[lo:i], true
}

// float reads a number as encoding/json does for a float64 field.
func (p *parser) float() (float64, bool) {
	tok, ok := p.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, err == nil
}

// floats reads an array of numbers; [] is an empty, non-nil slice, as
// encoding/json decodes it.
func (p *parser) floats() ([]float64, bool) {
	out := []float64{}
	ok := p.array(func() bool {
		v, ok := p.float()
		out = append(out, v)
		return ok
	})
	return out, ok
}

// operand reads a plain decimal integer of at most 2^32-1: a number
// token without sign, fraction or exponent.
func (p *parser) operand() (uint32, bool) {
	tok, ok := p.number()
	if !ok {
		return 0, false
	}
	var v uint64
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, false
		}
		if v = v*10 + uint64(c-'0'); v > math.MaxUint32 {
			return 0, false
		}
	}
	return uint32(v), true
}

// pairs reads the array of pair objects into d's scratch and returns an
// exactly sized copy; [] is an empty, non-nil slice.
func (p *parser) pairs(d *decoder) ([]workload.OperandPair, bool) {
	ps := d.pairs[:0]
	ok := p.array(func() bool {
		pr, ok := p.pair()
		ps = append(ps, pr)
		return ok
	})
	d.pairs = ps
	if !ok {
		return nil, false
	}
	return append(make([]workload.OperandPair, 0, len(ps)), ps...), true
}

// pair reads one {"a":N,"b":N} object, members in either order.
func (p *parser) pair() (pr workload.OperandPair, ok bool) {
	var seenA, seenB bool
	ok = p.object(func(key []byte) bool {
		v, ok := p.operand()
		switch string(key) {
		case "a", "A":
			ok = ok && !seenA
			seenA, pr.A = true, v
		case "b", "B":
			ok = ok && !seenB
			seenB, pr.B = true, v
		default:
			return false
		}
		return ok
	})
	return pr, ok && seenA && seenB
}
