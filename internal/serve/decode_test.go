package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"tevot/internal/workload"
)

// FuzzPredictDecode holds the one-pass decode to the reference decode.
// Wherever the one-pass parser accepts a body on its own, the reference
// must accept it with a reflect.DeepEqual request; and the production
// decode (one pass, else the reference) and the reference must both
// accept with equal requests, or both reject with the same error text.
func FuzzPredictDecode(f *testing.F) {
	for _, seed := range []string{
		validBody(40),
		` { "voltage" : 0.9 ,` + "\n\t" + `"temperature":` + "\r" + `25 , "pairs" : [ { "a" : 1 , "b" : 2 } , {"b":4,"a":3} ] , "clocks" : [ 650 , 7e2 ] } `,
		`{"voltage":0.9,"temperature":25,"pairs":[{"a":1,"b":2},{"a":3,"b":4}]}`,
		`{"Voltage":0.9,"temperature":25,"pairs":[{"a":1,"b":2},{"a":3,"b":4}]}`,
		`{"voltage":0.9,"temperature":25,"bogus":1,"pairs":[{"a":1,"b":2},{"a":3,"b":4}]}`,
		`{"voltage":0.9,"voltage":0.8,"temperature":25,"pairs":[{"a":1,"b":2},{"a":3,"b":4}]}`,
		`{"voltage":0.9,"temperature":25,"pairs":[{"a":1,"a":2,"b":3},{"a":3,"b":4}]}`,
		`{"voltage":0.9,"temperature":25,"pairs":[{"A":1,"B":2},{"b":4,"a":3}]}`,
		`{"voltage":0.9,"temperature":25,"pairs":[{"c":1,"b":2},{"a":3,"b":4}]}`,
		`{"voltage":0.9,"temperature":25,"pairs":[{"a":1,"b":2,"c":5},{"a":3,"b":4}]}`,
		`{"\u0076oltage":0.9,"temperature":25,"Pairs":[{"a":1,"b":2},{"a":3,"b":4}]}`,
		`{"voltage":0.9,"temperature":25,"pairs":null,"clocks":null}`,
		`{"voltage":0.9,"temperature":25,"pairs":[{"a":1.0,"b":2},{"a":3,"b":4}]}`,
		`{"voltage":0.9,"temperature":25,"pairs":[{"a":1e0,"b":2},{"a":3,"b":4}]}`,
		`{"voltage":0.9,"temperature":25,"pairs":[{"a":-1,"b":2},{"a":3,"b":4}]}`,
		`{"voltage":0.9,"temperature":25,"pairs":[{"a":4294967296,"b":2},{"a":4294967295,"b":4}]}`,
		`{"voltage":0.9,"temperature":25,"pairs":[{"a":01,"b":2},{"a":3,"b":4}]}`,
		`{"voltage":0.9,"temperature":25,"pairs":[{"a":1,"b":2},{"a":3,`,
		`{"voltage":0.9,"temperature":25,"pairs":[{"a":1,"b":2},{"a":3,"b":4}]} trailing {"x"`,
		`{"voltage":1e400,"temperature":-0,"pairs":[],"clocks":[]}`,
		`{"voltage":"0.9","temperature":25,"pairs":[{"a":1,"b":2}]}`,
		`{"voltage":0.9,"pairs":[{"a":1,"b":2}]}`,
		`{}`, `[]`, `null`, ``, `{"pairs":[{"a":1}]}`, `{"voltage":0.9,}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := decodeReference(body)
		d := new(decoder)
		if fast, ok := d.parse(body); ok {
			if wantErr != nil {
				t.Fatalf("one-pass decode accepts %q; the reference rejects it: %v", body, wantErr)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("one-pass decode of %q = %+v; reference %+v", body, fast, want)
			}
		}
		got, gotErr := d.decode(body)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("decode of %q: error %v; reference error %v", body, gotErr, wantErr)
		case gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("decode of %q: error %q; reference error %q", body, gotErr, wantErr)
		case gotErr == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("decode of %q = %+v; reference %+v", body, got, want)
		}
	})
}

// TestCanonicalBodiesTakeFastPath: what real clients send — the wire
// struct through json.Marshal (OperandPair's fields as "A"/"B"), a
// lowercase-tagged wire form through json.Marshal of a map (sorted
// keys) — decodes in one pass to the reference's request, with no
// fallback counted. The loadgen suite checks its own bodies the same
// way.
func TestCanonicalBodiesTakeFastPath(t *testing.T) {
	pairs := workload.RandomInt(1025, 7).Pairs
	type wirePair struct {
		A uint32 `json:"a"`
		B uint32 `json:"b"`
	}
	wire := make([]wirePair, len(pairs))
	for i, p := range pairs {
		wire[i] = wirePair{p.A, p.B}
	}
	bodies := map[string]any{
		"wire struct":           predictRequest{Voltage: 0.85, Temperature: 45, Pairs: pairs, Clocks: []float64{650, 700.5}},
		"wire struct no clocks": predictRequest{Voltage: 1, Temperature: -40, Pairs: pairs[:2]},
		"lowercase map":         map[string]any{"voltage": 0.93, "temperature": 101.25, "pairs": wire, "clocks": []float64{500}},
	}
	before := mDecodeFallback.Value()
	for name, v := range bodies {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := decodeReference(body)
		if err != nil {
			t.Fatal(err)
		}
		got, err := readPredict(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: one-pass decode differs from the reference", name)
		}
	}
	if n := mDecodeFallback.Value() - before; n != 0 {
		t.Errorf("%d canonical bodies fell back to the reference decode", n)
	}
	if _, err := readPredict(strings.NewReader(`{"Voltage":0.9}`)); err != nil {
		t.Fatal(err)
	}
	if n := mDecodeFallback.Value() - before; n != 1 {
		t.Errorf("a case-variant key counted %d fallbacks, want 1", n)
	}
}

// TestBodyOverCapIs413: the body is read whole before decoding, so a
// body over MaxBodyBytes is refused 413 even when its first JSON value
// ends inside the cap (a streaming decode would have answered it 200).
func TestBodyOverCapIs413(t *testing.T) {
	body := validBody(3)
	_, ts := newTestServer(t, func(c *Config) { c.MaxBodyBytes = int64(len(body) + 10) })
	if resp, data := postPredict(t, ts.URL, body+strings.Repeat(" ", 10)); resp.StatusCode != http.StatusOK {
		t.Fatalf("body at the cap: status %d: %s", resp.StatusCode, data)
	}
	resp, data := postPredict(t, ts.URL, body+strings.Repeat(" ", 11))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("body one byte over the cap: status %d, want 413: %s", resp.StatusCode, data)
	}
	if e := decodeError(t, data); e.Error.Code != "body_too_large" {
		t.Errorf("code %q, want body_too_large", e.Error.Code)
	}
}
