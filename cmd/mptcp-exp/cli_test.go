package main

// End-to-end checks of the -where and -trace surface of the real
// binary: a filter the experiment cannot honour, or -trace on an
// experiment that cannot trace, must exit non-zero before any cell runs
// and leave no output behind; an honoured filter emits exactly the
// cells it names, in the exp.Record JSON field order.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mptcp/internal/cc"
)

func TestCLIWhereAndTrace(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "mptcp-exp")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (stdout, stderr string, err error) {
		var o, e bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &o, &e
		err = cmd.Run()
		return o.String(), e.String(), err
	}

	tracePath := filepath.Join(dir, "t.jsonl")
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-exp", "fleet", "-scale", "0.02", "-where", "scheduler=bandit", "-json"}, "values: firstfit, minrtt"},
		{[]string{"-exp", "dynamics", "-scale", "0.02", "-where", "scheduler=minrtt"}, "axes: algorithm, topology, scenario"},
		{[]string{"-exp", "tournament", "-scale", "0.02", "-where", "workload=video"}, "axes: algorithm, topology"},
		{[]string{"-run", "fig8-torus", "-scale", "0.02", "-trace", tracePath}, "cannot trace"},
		{[]string{"-exp", "fleet", "-scale", "0.02", "-trace", tracePath}, "cannot trace"},
	} {
		stdout, stderr, err := run(tc.args...)
		if err == nil || !strings.Contains(stderr, tc.wantErr) || stdout != "" {
			t.Errorf("%v: err %v, stdout %q, stderr %q; want a non-zero exit mentioning %q and no output",
				tc.args, err, stdout, stderr, tc.wantErr)
		}
		if _, statErr := os.Stat(tracePath); statErr == nil {
			t.Errorf("%v: left a trace file behind", tc.args)
		}
	}

	// Scheduler values are canonicalised: MinRTT selects fleet's minrtt
	// column, one cell per algorithm.
	stdout, stderr, err := run("-exp", "fleet", "-scale", "0.02", "-where", "scheduler=MinRTT", "-json")
	if err != nil {
		t.Fatalf("fleet -where scheduler=MinRTT: %v\n%s", err, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != len(cc.Names()) {
		t.Errorf("fleet -where scheduler=MinRTT emitted %d records, want %d", len(lines), len(cc.Names()))
	}
	for _, l := range lines {
		if !strings.Contains(l, `"scheduler":"minrtt"`) {
			t.Errorf("record outside the filter: %s", l)
		}
	}

	// One traced tournament cell: a non-empty trace, and the record's
	// JSON fields in exp.Record's order after the trial identity.
	stdout, stderr, err = run("-exp", "tournament", "-scale", "0.02", "-where", "algorithm=MPTCP,topology=wifi3g", "-json", "-trace", tracePath)
	if err != nil {
		t.Fatalf("traced tournament cell: %v\n%s", err, stderr)
	}
	const prefix = `{"id":"tournament","trial":0,"seed":42,"scale":0.02,"algorithm":"MPTCP","topology":"wifi3g","metrics":{`
	if !strings.HasPrefix(stdout, prefix) || strings.Count(stdout, "\n") != 1 {
		t.Errorf("tournament cell record = %q, want one line starting %q", stdout, prefix)
	}
	if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
		t.Errorf("traced tournament cell wrote no trace (%v)", err)
	}
}
