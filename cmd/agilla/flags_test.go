package main

import (
	"strings"
	"testing"
)

// TestRejectsSpansThatCannotAdvance: a non-positive -status would print
// status lines forever at one instant, and a negative -run asks the clock
// to move back. Both commands must refuse before building a network.
func TestRejectsSpansThatCannotAdvance(t *testing.T) {
	for _, tc := range []struct {
		cmd  func([]string) error
		args []string
		flag string
	}{
		{run, []string{"-run", "-3s"}, "-run"},
		{runServe, []string{"-run", "-3s"}, "-run"},
		{runServe, []string{"-status", "0"}, "-status"},
		{runServe, []string{"-status", "-1s"}, "-status"},
	} {
		err := tc.cmd(tc.args)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+":") {
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.flag)
		}
	}
}
