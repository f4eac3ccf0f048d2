package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// Native Go fuzzers for every decoder on the /v1 ingest surface. The
// contract under fuzz: arbitrary bytes yield either a typed error or a
// message that survives an encode/decode round trip unchanged — never a
// panic, and never silent garbage (a "successful" decode that re-encodes
// to something that decodes differently). Seed corpora live in
// testdata/fuzz/<FuzzName>/; scripts/fuzz.sh gives each target a short
// CI budget on every push.

func FuzzDecodeRateBatch(f *testing.F) {
	f.Add([]byte(`{"ratings":[{"uid":1,"item":5,"liked":true}]}`))
	f.Add([]byte(`{"ratings":[]}`))
	f.Add([]byte(`{"ratings":null}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`{"ratings":[{"uid":4294967295,"item":4294967295,"liked":false}]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"ratings":[{"uid":-1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRateRequest(data)
		if err != nil {
			if req != nil {
				t.Fatal("error with non-nil request")
			}
			return
		}
		if len(req.Ratings) > MaxBatchRatings {
			t.Fatalf("accepted oversized batch of %d", len(req.Ratings))
		}
		// No silent garbage: a successful decode re-encodes to JSON that
		// decodes to the same batch.
		re, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := DecodeRateRequest(re)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(back.Ratings) != len(req.Ratings) {
			t.Fatalf("round trip changed batch size: %d vs %d", len(back.Ratings), len(req.Ratings))
		}
		for i := range back.Ratings {
			if back.Ratings[i] != req.Ratings[i] {
				t.Fatalf("round trip changed rating %d: %+v vs %+v", i, back.Ratings[i], req.Ratings[i])
			}
		}
	})
}

func FuzzDecodeResult(f *testing.F) {
	f.Add([]byte(`{"uid":7,"epoch":2,"neighbors":[1,2],"recs":[9]}`))
	f.Add([]byte(`{"uid":7,"epoch":2,"lease":77,"neighbors":[],"recs":[]}`))
	f.Add([]byte(`{"uid":0,"epoch":0,"neighbors":null,"recs":null}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`nope`))
	f.Add([]byte(`{"uid":18446744073709551615}`))
	f.Add([]byte(`{"neighbors":[1e309]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResult(data)
		if err != nil {
			return
		}
		// Round trip through both encoders: json.Marshal and the pooled
		// appender must agree, and the bytes must decode back equal.
		std, err := EncodeResult(res)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if app := AppendResult(nil, res); !bytes.Equal(app, std) {
			t.Fatalf("encoder divergence:\n append %s\n stdlib %s", app, std)
		}
		back, err := DecodeResult(std)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if back.UID != res.UID || back.Epoch != res.Epoch || back.Lease != res.Lease ||
			len(back.Neighbors) != len(res.Neighbors) || len(back.Recommendations) != len(res.Recommendations) {
			t.Fatalf("round trip changed result: %+v vs %+v", back, res)
		}
	})
}

func FuzzDecodeAck(f *testing.F) {
	f.Add([]byte(`{"lease":77,"done":true}`))
	f.Add([]byte(`{"lease":1,"done":false}`))
	f.Add([]byte(`{"lease":0}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"lease":18446744073709551615,"done":true}`))
	f.Add([]byte(`"lease"`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeAck(data)
		if err != nil {
			if errors.Is(err, ErrMissingLease) && req != nil {
				t.Fatal("missing-lease error with non-nil ack")
			}
			return
		}
		if req.Lease == 0 {
			t.Fatal("accepted ack without a lease")
		}
		re, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := DecodeAck(re)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if *back != *req {
			t.Fatalf("round trip changed ack: %+v vs %+v", back, req)
		}
	})
}

// FuzzDecodeJob rides along: jobs cross the wire server → widget, and
// the widget's decoder must hold the same never-panic contract.
func FuzzDecodeJob(f *testing.F) {
	f.Add([]byte(`{"uid":42,"epoch":3,"k":10,"r":5,"profile":{"id":42,"liked":[1]},"candidates":[{"id":2,"liked":[1,2]}]}`))
	f.Add([]byte(`{"uid":1,"epoch":1,"k":5,"r":5,"lease":77,"deadline_ms":123,"attempt":2,"profile":{"id":1,"liked":null},"candidates":null}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		job, err := DecodeJob(data)
		if err != nil {
			return
		}
		std, err := EncodeJob(job)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if app := AppendJob(nil, job, nil); !bytes.Equal(app, std) {
			t.Fatalf("encoder divergence:\n append %s\n stdlib %s", app, std)
		}
	})
}

// FuzzDecodeWSClientMsg covers the worker socket's only server-side
// decoder: every accepted message carries something, grants credits
// within [0, MaxWSWant], never an ack without a lease, and survives an
// encode/decode round trip unchanged.
func FuzzDecodeWSClientMsg(f *testing.F) {
	f.Add([]byte(`{"want":1}`))
	f.Add([]byte(`{"want":65536}`))
	f.Add([]byte(`{"want":9223372036854775807}`))
	f.Add([]byte(`{"want":-1}`))
	f.Add([]byte(`{"ack":{"lease":77,"done":false}}`))
	f.Add([]byte(`{"ack":{"lease":0}}`))
	f.Add([]byte(`{"want":1,"result":{"uid":7,"epoch":2,"lease":3,"neighbors":[1],"recs":[9]}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeWSClientMsg(data)
		if err != nil {
			if m != nil {
				t.Fatal("error with non-nil message")
			}
			return
		}
		if m.Want < 0 || m.Want > MaxWSWant {
			t.Fatalf("accepted credit grant %d outside [0, %d]", m.Want, MaxWSWant)
		}
		if m.Want == 0 && m.Ack == nil && m.Result == nil {
			t.Fatal("accepted an empty message")
		}
		if m.Ack != nil && m.Ack.Lease == 0 {
			t.Fatal("accepted an ack without a lease")
		}
		re, err := EncodeWSClientMsg(m)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := DecodeWSClientMsg(re)
		if err != nil {
			t.Fatalf("re-decode %s: %v", re, err)
		}
		if back.Want != m.Want || (back.Ack == nil) != (m.Ack == nil) || (back.Result == nil) != (m.Result == nil) ||
			(m.Ack != nil && *back.Ack != *m.Ack) {
			t.Fatalf("round trip changed message: %+v vs %+v", back, m)
		}
	})
}
