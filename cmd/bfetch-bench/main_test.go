package main

import (
	"reflect"
	"testing"
)

// TestParseCores pins the -scalecores grammar: whole positive decimals only,
// so a typo like "16.5" or "8x" is an error instead of a silently truncated
// core count.
func TestParseCores(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int // nil: must be rejected
	}{
		{"8,16", []int{8, 16}},
		{" 4 ", []int{4}},
		{"2, 4 ,64", []int{2, 4, 64}},
		{"16.5", nil},
		{"8x", nil},
		{"0", nil},
		{"-4", nil},
		{"8,,16", nil},
		{"", nil},
	} {
		got, err := parseCores(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseCores(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseCores(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}
