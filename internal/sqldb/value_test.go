package sqldb

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCompareNumericCrossType(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(1), Float(1.0), 0},
		{Int(1), Float(1.5), -1},
		{Float(2.5), Int(2), 1},
		{Text("a"), Text("b"), -1},
		{Text("b"), Text("b"), 0},
		{Bool(false), Bool(true), -1},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareTime(t *testing.T) {
	t1 := Time(time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC))
	t2 := Time(time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC))
	if Compare(t1, t2) != -1 || Compare(t2, t1) != 1 || Compare(t1, t1) != 0 {
		t.Fatal("time comparison broken")
	}
}

func TestTimeTruncation(t *testing.T) {
	v := Time(time.Date(2003, 1, 1, 12, 0, 0, 999999999, time.UTC))
	if v.Time().Nanosecond() != 0 {
		t.Fatal("Time() did not truncate to seconds")
	}
}

// Property: Compare is antisymmetric and reflexive over ints and floats.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int32, fa, fb float32) bool {
		va, vb := Int(int64(a)), Float(float64(fb))
		_ = fa
		_ = b
		return Compare(va, vb) == -Compare(vb, va) && Compare(va, va) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL":  Null(),
		"42":    Int(42),
		"2.5":   Float(2.5),
		"hello": Text("hello"),
		"TRUE":  Bool(true),
		"FALSE": Bool(false),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", v, got, want)
		}
	}
}

func TestCoerce(t *testing.T) {
	if v, err := coerce(Int(3), TypeFloat); err != nil || v.Float() != 3 {
		t.Fatalf("int->float: %v %v", v, err)
	}
	if v, err := coerce(Float(3.0), TypeInt); err != nil || v.Int() != 3 {
		t.Fatalf("float->int exact: %v %v", v, err)
	}
	if _, err := coerce(Float(3.5), TypeInt); err == nil {
		t.Fatal("lossy float->int did not fail")
	}
	if _, err := coerce(Text("x"), TypeInt); err == nil {
		t.Fatal("text->int did not fail")
	}
	if v, err := coerce(Text("2003-11-15"), TypeTime); err != nil || v.Time().Day() != 15 {
		t.Fatalf("date parse: %v %v", v, err)
	}
	if v, err := coerce(Null(), TypeText); err != nil || !v.IsNull() {
		t.Fatalf("null passthrough: %v %v", v, err)
	}
	// NaN would leave an indexed FLOAT column without a total order; the
	// infinities are ordered and stored.
	if _, err := coerce(Float(math.NaN()), TypeFloat); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("NaN: err = %v, want a refusal naming NaN", err)
	}
	if v, err := coerce(Float(math.Inf(-1)), TypeFloat); err != nil || !math.IsInf(v.Float(), -1) {
		t.Fatalf("-Inf: %v %v", v, err)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"a%", "abc", true},
		{"%c", "abc", true},
		{"%b%", "abc", true},
		{"a_c", "abc", true},
		{"a_c", "abbc", false},
		{"%", "", true},
		{"%", "anything", true},
		{"_", "", false},
		{"_", "x", true},
		{"a%b%c", "axxbyyc", true},
		{"a%b%c", "acb", false},
		{"%%", "x", true},
		{"", "", true},
		{"", "x", false},
		{"h-2%", "h-2-pulsar.gwf", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.pattern, c.s); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

// Property: a pattern equal to the string (no wildcards) always matches.
func TestQuickLikeExact(t *testing.T) {
	f := func(s string) bool {
		for _, r := range s {
			if r == '%' || r == '_' {
				return true // skip wildcard-bearing inputs
			}
		}
		return likeMatch(s, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: "%"+s+"%" matches any string containing s.
func TestQuickLikeContains(t *testing.T) {
	f := func(prefix, mid, suffix string) bool {
		for _, r := range mid {
			if r == '%' || r == '_' {
				return true
			}
		}
		return likeMatch("%"+mid+"%", prefix+mid+suffix)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
