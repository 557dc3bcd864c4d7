package repro_test

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestExamplesRun holds the facade's spec to the facade: every program under
// examples/ builds against the current api.go, runs to exit 0 from an empty
// working directory within a minute, and prints something.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go on PATH to build the examples with")
	}
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		name := d.Name()
		t.Run(name, func(t *testing.T) {
			exe := filepath.Join(bin, name)
			if out, err := exec.Command(goBin, "build", "-o", exe, "./examples/"+name).CombinedOutput(); err != nil {
				t.Fatalf("go build: %v\n%s", err, out)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, exe)
			cmd.Dir = t.TempDir()
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%v (context: %v)\nstderr:\n%s", err, ctx.Err(), stderr.Bytes())
			}
			if stdout.Len() == 0 {
				t.Error("exit 0 with nothing on stdout")
			}
		})
	}
}
