package analyzer_test

import (
	"bytes"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/workloads"
)

// mailboxValue is the argument that carries the message on every mailbox
// record the matcher may pair, read here apart from its channel table.
var mailboxValue = map[event.ID]int{
	event.SPEWriteOutMboxEnter: 0, event.SPEWriteOutMboxExit: 0,
	event.SPEWriteIntrMboxEnter: 0, event.SPEWriteIntrMboxExit: 0,
	event.PPEWriteInMboxEnter: 1, event.PPEWriteInMboxExit: 1,
	event.PPEReadOutMboxExit: 1, event.PPEReadIntrMboxExit: 1,
	event.SPEReadInMboxExit: 0,
}

// TestMailboxPairsCarryOneValue: a mailbox is a FIFO, so the send the
// critical path pairs a mailbox read with must carry the value the read
// returned, and on a clean trace every read finds its send. A blocked
// reader stamps its exit before its sender stamps its own, so a matcher
// that pairs in stamp order takes the previous message instead.
func TestMailboxPairsCarryOneValue(t *testing.T) {
	reads := map[event.ID]bool{event.PPEReadOutMboxExit: true, event.PPEReadIntrMboxExit: true, event.SPEReadInMboxExit: true}
	pairs := 0
	for _, name := range workloads.Names() {
		tr, err := analyzer.Load(bytes.NewReader(traceWorkload(t, name)))
		if err != nil {
			t.Fatal(err)
		}
		s := tr.Columns()
		arg := func(i int) uint64 { return s.Args[int(s.ArgOff[i])+mailboxValue[s.ID[i]]] }
		for r, snd := range analyzer.MatchChannels(tr) {
			if !reads[s.ID[r]] {
				continue
			}
			if snd < 0 {
				t.Errorf("%s: %s at %d (value %d) found no send", name, s.ID[r], s.Global[r], arg(r))
				continue
			}
			pairs++
			if arg(snd) != arg(r) {
				t.Errorf("%s: %s at %d read %d from %s at %d, which sent %d",
					name, s.ID[r], s.Global[r], arg(r), s.ID[snd], s.Global[snd], arg(snd))
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no workload paired a mailbox read")
	}
}
