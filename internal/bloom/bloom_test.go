package bloom

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"testing"
	"testing/quick"
)

func TestBloomRoundTripJSON(t *testing.T) {
	f := New(100, 0.01)
	for i := 0; i < 100; i++ {
		f.Add(fmt.Sprintf("k%d", i))
	}
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var f2 Filter
	if err := json.Unmarshal(raw, &f2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if !f2.Test(fmt.Sprintf("k%d", i)) {
			t.Fatalf("round-tripped filter lost k%d", i)
		}
	}
	again, err := json.Marshal(&f2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again) {
		t.Fatalf("re-encoded filter differs:\n%s\n%s", raw, again)
	}
}

func TestBloomMalformedJSON(t *testing.T) {
	bits := func(n int) string { return base64.StdEncoding.EncodeToString(make([]byte, n)) }
	for _, in := range []string{
		`{"m":0,"k":1,"bits":""}`,                  // no bits
		`{"m":1024,"k":4,"bits":"AA=="}`,           // fewer bits than m
		`{"m":64,"k":0,"bits":"` + bits(8) + `"}`,  // no hash functions
		`{"m":64,"k":65,"bits":"` + bits(8) + `"}`, // too many
		`{"m":72,"k":4,"bits":"` + bits(9) + `"}`,  // partial word: a probe past bit 63 would index out of range
		`{"m":64,"k":4,"bits":"!!"}`,               // not base64
		`{"m":64,"k":4,"bits":"` + bits(8)[:4],     // truncated JSON
		`[1,2,3]`,                                  // wrong shape
	} {
		var f Filter
		if err := json.Unmarshal([]byte(in), &f); err == nil {
			t.Errorf("accepted %s", in)
		}
	}
}

// Property: no false negatives for any added key set.
func TestQuickBloomNoFalseNegatives(t *testing.T) {
	check := func(keys []string) bool {
		f := New(len(keys)+1, 0.01)
		for _, k := range keys {
			f.Add(k)
		}
		for _, k := range keys {
			if !f.Test(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
