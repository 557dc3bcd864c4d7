package repro_test

import (
	"bytes"
	"os"
	"testing"
)

// designMaxLines is DESIGN.md's length when "DESIGN.md does not grow"
// became a check: a change that adds lines to it removes as many elsewhere.
const designMaxLines = 1214

// TestDesignDoesNotGrow holds DESIGN.md, the contract the code is kept to,
// at or under designMaxLines lines.
func TestDesignDoesNotGrow(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(b, []byte("\n")); n > designMaxLines {
		t.Errorf("DESIGN.md has %d lines, over its limit of %d: shorten it by %d", n, designMaxLines, n-designMaxLines)
	}
}
