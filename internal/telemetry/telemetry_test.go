package telemetry

import (
	"strings"
	"testing"

	"toss/internal/simtime"
)

func TestSpanTree(t *testing.T) {
	tr := NewTracer()
	root := tr.Root(KindInvocation, "fn", 0, Str("mode", "toss"))
	restore := root.Child(KindSnapshotRestore, "restore", 0)
	mmap := restore.Child(KindMmap, "mmap", 0, I64("mappings", 3))
	mmap.EndAt(75 * simtime.Microsecond)
	restore.EndAt(4 * simtime.Millisecond)
	exec := root.Child(KindExec, "exec", 4*simtime.Millisecond)
	exec.EndAt(18 * simtime.Millisecond)
	root.EndAt(18 * simtime.Millisecond)

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[0].Parent != -1 || spans[1].Parent != spans[0].ID || spans[2].Parent != spans[1].ID {
		t.Error("parent links wrong")
	}
	for _, s := range spans {
		if s.Track != 0 {
			t.Errorf("span %q on track %d, want 0", s.Name, s.Track)
		}
	}
	if got := spans[3].Duration(); got != 14*simtime.Millisecond {
		t.Errorf("exec duration = %v", got)
	}
	if tr.Tracks() != 1 {
		t.Errorf("tracks = %d", tr.Tracks())
	}

	// A second root lands on a new track.
	r2 := tr.Root(KindInvocation, "fn2", 0)
	if r2.Track != 1 {
		t.Errorf("second root track = %d", r2.Track)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	root := tr.Root(KindInvocation, "fn", 0)
	if root != nil {
		t.Fatal("nil tracer produced a span")
	}
	// All of these must be safe no-ops.
	child := root.Child(KindExec, "exec", 0)
	child.Annotate(I64("x", 1))
	child.EndAt(5)
	root.EndAt(10)
	if child.Duration() != 0 {
		t.Error("nil span has duration")
	}
	if tr.Spans() != nil || tr.Tracks() != 0 {
		t.Error("nil tracer recorded something")
	}
}

func TestSpanKindStrings(t *testing.T) {
	kinds := []SpanKind{
		KindInvocation, KindBoot, KindSnapshotCreate, KindSnapshotRestore,
		KindMmap, KindPrefetch, KindPTEPopulate, KindDemandFault,
		KindDAMONSample, KindDAMONAggregate, KindControllerPhase,
		KindExec,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if strings.HasPrefix(s, "SpanKind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if got := SpanKind(200).String(); got != "SpanKind(200)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestAttrHelpers(t *testing.T) {
	if a := I64("pages", 42); a.Key != "pages" || a.Val != "42" {
		t.Errorf("I64 = %+v", a)
	}
	if a := F64("ratio", 0.5); a.Val != "0.5" {
		t.Errorf("F64 = %+v", a)
	}
	if a := Dur("d", simtime.Millisecond); a.Val != "1000000" {
		t.Errorf("Dur = %+v", a)
	}
	if a := Str("k", "v"); a.Val != "v" {
		t.Errorf("Str = %+v", a)
	}
}

func TestAnnotateAndReset(t *testing.T) {
	tr := NewTracer()
	s := tr.Root(KindInvocation, "fn", 0)
	s.Annotate(I64("faults", 7), Str("phase", "tiered"))
	if len(tr.Spans()[0].Attrs) != 2 {
		t.Error("annotate failed")
	}
}
