package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the -h goldens in testdata")

// TestHelpGolden pins the -h text of agilla and agilla serve, so a flag
// change shows up as a reviewed golden diff. Regenerate with
//
//	go test ./cmd/agilla -run TestHelpGolden -update
func TestHelpGolden(t *testing.T) {
	for _, tc := range []struct {
		cmd    func([]string, io.Writer) error
		golden string
	}{
		{run, "testdata/help.golden"},
		{runServe, "testdata/serve-help.golden"},
	} {
		var got bytes.Buffer
		if err := tc.cmd([]string{"-h"}, &got); !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("%s: -h returned %v, want flag.ErrHelp (exit 0)", tc.golden, err)
		}
		if *update {
			if err := os.WriteFile(tc.golden, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs\n--- got ---\n%s--- want ---\n%s", tc.golden, got.Bytes(), want)
		}
	}
}

// TestUnknownFlagIsUsageError: a bad flag is reported with the usage
// text and ends as a usageError, which main turns into exit status 2.
func TestUnknownFlagIsUsageError(t *testing.T) {
	for _, cmd := range []func([]string, io.Writer) error{run, runServe} {
		var out bytes.Buffer
		var usage usageError
		if err := cmd([]string{"-nope"}, &out); !errors.As(err, &usage) {
			t.Errorf("unknown flag: error %v, want a usageError", err)
		}
		if !strings.Contains(out.String(), "-nope") || !strings.Contains(out.String(), "Usage of") {
			t.Errorf("unknown flag: output %q lacks the error and the usage text", out.String())
		}
	}
}

// TestRejectsSpansThatCannotAdvance: a non-positive -status would print
// status lines forever at one instant, and a negative -run asks the clock
// to move back. Both commands must refuse before building a network.
func TestRejectsSpansThatCannotAdvance(t *testing.T) {
	for _, tc := range []struct {
		cmd  func([]string, io.Writer) error
		args []string
		flag string
	}{
		{run, []string{"-run", "-3s"}, "-run"},
		{runServe, []string{"-run", "-3s"}, "-run"},
		{runServe, []string{"-status", "0"}, "-status"},
		{runServe, []string{"-status", "-1s"}, "-status"},
	} {
		err := tc.cmd(tc.args, io.Discard)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+":") {
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.flag)
		}
	}
}

// TestRejectsCoordinatesOutsideInt16: a Location field is an int16, and a
// coordinate that does not fit used to wrap (-at 65537,1 injected at
// (1,1)). Every flag that takes a location must refuse it by name.
func TestRejectsCoordinatesOutsideInt16(t *testing.T) {
	for _, s := range []string{"65537,1", "1,-32769", "32768,32768"} {
		if loc, err := parseLoc(s); err == nil {
			t.Errorf("parseLoc(%q) = %v, want an out-of-range error", s, loc)
		}
	}
	if loc, err := parseLoc("-32768, 32767"); err != nil || loc.X != -32768 || loc.Y != 32767 {
		t.Errorf("parseLoc at the int16 limits = %v, %v", loc, err)
	}
	for _, s := range []string{"udp:h:1=65537,1", "udp:h:1=1-3,1-40000", "udp:h:1=1,1+70000,0"} {
		if p, err := parsePeer(s); err == nil || !strings.HasPrefix(err.Error(), "-peer:") {
			t.Errorf("parsePeer(%q) = %d locations, %v; want an error naming -peer", s, len(p.Locations), err)
		}
	}
	prog := filepath.Join(t.TempDir(), "halt.agilla")
	if err := os.WriteFile(prog, []byte("halt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cmd  func([]string, io.Writer) error
		args []string
		flag string
	}{
		{run, []string{"-inject", prog, "-at", "65537,1", "-run", "0s"}, "-at"},
		{run, []string{"-fire", "4,70000", "-run", "0s"}, "-fire"},
		{runServe, []string{"-peer", "loop:b=9,9", "-base", "100,65536"}, "-base"},
	} {
		err := tc.cmd(tc.args, io.Discard)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+":") {
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.flag)
		}
	}
}
