package analyzer_test

// Summarize counts records in a flat table indexed by event ID, and
// reports it as a map: one key per ID that occurred, none with a zero
// count.

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/harness"
)

func TestSummarizeEventCountKeys(t *testing.T) {
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "pipeline",
		Params:   map[string]string{"blocks": "8", "blockbytes": "1024"},
		Trace:    &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := analyzer.Load(bytes.NewReader(res.TraceBytes))
	if err != nil {
		t.Fatal(err)
	}
	want := map[event.ID]int{}
	for _, id := range tr.Columns().ID {
		want[id]++
	}
	if got := analyzer.Summarize(tr).EventCount; !reflect.DeepEqual(got, want) {
		t.Errorf("EventCount = %v\nwant one key per distinct ID of the column, none zero: %v", got, want)
	}
}
