package engine

import (
	"context"
	"errors"
	"testing"
)

// TestClosedEngineCountsEverySubmission: both entry points share one
// admission rule, so every member submission counts in Stats.Submitted
// whether or not the engine still accepts work.
func TestClosedEngineCountsEverySubmission(t *testing.T) {
	e := New(Options{Workers: 1})
	e.Close()

	if _, err := e.Submit(value("late", 1)).Wait(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit err = %v, want ErrClosed", err)
	}
	for _, j := range e.SubmitGroup(groupOf("late-group", 3, 0, nil, nil)) {
		if _, err := j.Wait(context.Background()); !errors.Is(err, ErrClosed) {
			t.Fatalf("SubmitGroup err = %v, want ErrClosed", err)
		}
	}
	if st := e.Stats(); st.Submitted != 4 || st.FusedGroups != 0 {
		t.Errorf("stats = %+v, want Submitted 4 (1 task + 3 members), FusedGroups 0", st)
	}
}

// TestSubmitIsNotAFusedGroup: a plain task runs as a group of one but
// never counts as a fused group.
func TestSubmitIsNotAFusedGroup(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	if _, err := e.Submit(value("plain", 1)).Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.FusedGroups != 0 || st.Executed != 1 || st.Submitted != 1 {
		t.Errorf("stats = %+v, want one executed submission and no fused group", st)
	}
}
