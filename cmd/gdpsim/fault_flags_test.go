package main

import (
	"context"
	"testing"

	"repro/internal/faultinject"
)

// sweepArgs is the tiny grid every fault-flag test runs.
func sweepArgs(extra ...string) []string {
	args := []string{
		"-workloads", "1", "-instructions", "2000", "-interval", "2000",
		"sweep", "-cores", "2", "-mixes", "H", "-prb", "16", "-techniques", "GDP",
	}
	return append(args, extra...)
}

// TestSweepCacheDirResume is the CLI face of crash-safe sweeps: a sweep that
// finished only part of its grid, rerun in full over the same -cache-dir,
// prints exactly what an uninterrupted run prints.
func TestSweepCacheDirResume(t *testing.T) {
	dir := t.TempDir()
	sweep := func(prb string, cached bool) func() error {
		args := []string{"-workloads", "1", "-instructions", "2000", "-interval", "2000"}
		if cached {
			args = append(args, "-cache-dir", dir)
		}
		args = append(args, "sweep", "-cores", "2", "-mixes", "H", "-prb", prb, "-techniques", "GDP")
		return func() error { return run(context.Background(), args) }
	}
	want := captureStdout(t, sweep("16,32", false))
	captureStdout(t, sweep("16", true))
	if got := captureStdout(t, sweep("16,32", true)); got != want {
		t.Errorf("resumed output differs:\n--- fresh\n%s--- resumed\n%s", want, got)
	}
}

// TestSweepResumeRequiresJournal: -resume went with the journal, so a sweep
// given it fails instead of silently starting over.
func TestSweepResumeRequiresJournal(t *testing.T) {
	if err := run(context.Background(), sweepArgs("-resume")); err == nil {
		t.Error("-resume accepted")
	}
}

// TestFaultSpecFlag checks the global injector flag: a malformed spec is a
// startup error, and a valid armed spec that cannot fire leaves the sweep
// untouched.
func TestFaultSpecFlag(t *testing.T) {
	defer faultinject.SetActive(nil)
	if err := run(context.Background(), []string{"-fault-spec", "nosuch.point:err=EIO", "table1"}); err == nil {
		t.Error("bad fault spec accepted")
	}
	if err := run(context.Background(), []string{"-fault-spec", "journal.write:err=EIO", "table1"}); err == nil {
		t.Error("the deleted journal.write point was accepted")
	}
	if err := run(context.Background(), append([]string{"-fault-spec", "disk.write:err=EIO:after=1000000"},
		sweepArgs()...)); err != nil {
		t.Errorf("armed-but-dormant fault spec failed the sweep: %v", err)
	}
}

// TestFaultSpecDiskFaultsSurvived: injected disk-write errors hit the cache's
// silent-optimization path, so a sweep under constant disk.write EIO still
// completes with the same rendered rows.
func TestFaultSpecDiskFaultsSurvived(t *testing.T) {
	defer faultinject.SetActive(nil)
	clean := captureStdout(t, func() error {
		return run(context.Background(), sweepArgs())
	})
	faulty := captureStdout(t, func() error {
		return run(context.Background(), append([]string{"-fault-spec", "disk.write:err=EIO:every=1"},
			sweepArgs()...))
	})
	if clean != faulty {
		t.Errorf("rows differ under injected disk faults:\n--- clean\n%s--- faulty\n%s", clean, faulty)
	}
}
