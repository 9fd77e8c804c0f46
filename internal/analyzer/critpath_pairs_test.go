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

// TestSignalPairsCarryReturnedBits: a signal register in OR mode returns
// the OR of every write since the last read, so the send the critical
// path pairs a signal read with must be one whose bits the read returned,
// and on a clean trace every read finds one. A matcher that pairs reads
// with sends by position takes a send meant for the next read whenever
// two writes land between two reads.
func TestSignalPairsCarryReturnedBits(t *testing.T) {
	pairs := 0
	for _, name := range workloads.Names() {
		tr, err := analyzer.Load(bytes.NewReader(traceWorkload(t, name)))
		if err != nil {
			t.Fatal(err)
		}
		s := tr.Columns()
		arg := func(i, n int) uint64 { return s.Args[int(s.ArgOff[i])+n] }
		for r, snd := range analyzer.MatchChannels(tr) {
			if s.ID[r] != event.SPEReadSignalExit {
				continue
			}
			got := arg(r, 1)
			if snd < 0 {
				t.Errorf("%s: %s at %d (value %#x) found no send", name, s.ID[r], s.Global[r], got)
				continue
			}
			pairs++
			if sent := arg(snd, 2); sent == 0 || sent&^got != 0 {
				t.Errorf("%s: %s at %d returned %#x, paired with %s at %d, which sent %#x",
					name, s.ID[r], s.Global[r], got, s.ID[snd], s.Global[snd], sent)
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no workload paired a signal read")
	}
}
