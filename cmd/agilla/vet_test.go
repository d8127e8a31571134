package main

import (
	"bytes"
	"os"
	"testing"
)

// TestVetGolden pins `agilla vet -strict -lib examples/agents` — every
// example agent and every library agent through Parse/Build, Verify and
// Analyze — to the transcript the hand-written per-opcode analyzer
// printed before it became a walk over the ISA table (captured at commit
// bda3bbd). CI runs the same command; this compares its words.
func TestVetGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/vet-strict-lib-examples.golden")
	if err != nil {
		t.Fatal(err)
	}
	// The transcript names files as the command line did, from the repo root.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()

	var got bytes.Buffer
	if err := runVet([]string{"-strict", "-lib", "examples/agents"}, &got); err != nil {
		t.Errorf("vet failed: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("vet transcript differs from the golden\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
