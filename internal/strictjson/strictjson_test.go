package strictjson

import (
	"strings"
	"testing"
)

// TestDecode pins the one rule: a single value of known fields, then
// white space only.
func TestDecode(t *testing.T) {
	type point struct {
		X, Y int
	}
	for _, tc := range []struct {
		in   string
		want string // "" for no error, else a substring of it
	}{
		{`{"X":1,"Y":2}`, ""},
		{"  {\"X\":1}\n\t\n", ""},
		{`{"X":1,"Z":3}`, `offset 13: json: unknown field "Z"`},
		{`{"X":1`, "unexpected EOF"},
		{``, "offset 0: EOF"},
		{`{"X":1}garbage{`, "offset 7: trailing data"},
		{`{"X":1} {"X":2}`, "offset 7: trailing data"},
		{"{\"X\":1}\n}", "offset 7: trailing data"},
		{"{\"X\":1}\ntelemetry snapshot written to stdout\n", "offset 7: trailing data"},
	} {
		var p point
		err := Decode(strings.NewReader(tc.in), &p)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("Decode(%q) = %v, want %q", tc.in, err, tc.want)
		}
	}
}
