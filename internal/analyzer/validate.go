package analyzer

import (
	"fmt"
	"slices"

	"github.com/celltrace/pdt/internal/analyzer/colstore"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// validateAcc is the Validate kernel: the structural checker folded one
// merged segment at a time. Its checks are listed on Validate.
type validateAcc struct {
	seq       int // rows folded so far: the row index when there is one segment
	lastTime  [256]uint64
	openPairs [256][]event.ID // stack of open Enter events per core
	runsSeen  map[int]bool
	runEnded  map[int]bool

	spuOutWrites, ppeOutReads, ppeInWrites, spuInReads int

	issues []Issue // scan-order findings
}

func issuef(sev, format string, args ...interface{}) Issue {
	return Issue{sev, fmt.Sprintf(format, args...)}
}

func (v *validateAcc) report(sev, format string, args ...interface{}) {
	v.issues = append(v.issues, issuef(sev, format, args...))
}

// fold checks one segment. strings is the interned string table, holding
// every StringDef up to and including this segment.
func (v *validateAcc) fold(seg *colstore.Store, strings map[uint64]string) {
	if v.runsSeen == nil {
		v.runsSeen = map[int]bool{}
		v.runEnded = map[int]bool{}
	}
	for i, id := range seg.ID {
		seq := v.seq
		v.seq++
		info, ok := event.Lookup(id)
		if !ok {
			v.report("error", "unknown event id %d at seq %d", id, seq)
			continue
		}
		core, g := seg.Core[i], seg.Global[i]
		if last := v.lastTime[core]; g < last {
			v.report("error", "core %d time went backwards at seq %d (%d < %d)", core, seq, g, last)
		}
		v.lastTime[core] = g

		switch info.Kind {
		case event.KindEnter:
			v.openPairs[core] = append(v.openPairs[core], id)
		case event.KindExit:
			stack := v.openPairs[core]
			if len(stack) == 0 {
				v.report("error", "core %d: %s without matching enter at seq %d", core, info.Name, seq)
				break
			}
			top := stack[len(stack)-1]
			if top != info.Pair {
				v.report("error", "core %d: %s exits %s (crossed pair) at seq %d",
					core, info.Name, top, seq)
			}
			v.openPairs[core] = stack[:len(stack)-1]
		}

		run := int(seg.Run[i])
		switch id {
		case event.SPEProgramStart:
			if v.runsSeen[run] {
				v.report("error", "run %d has duplicate SPE_PROGRAM_START", run)
			}
			v.runsSeen[run] = true
			if ref := seg.Args[seg.ArgOff[i]]; strings[ref] == "" {
				v.report("warn", "run %d program name ref %d unresolved", run, ref)
			}
		case event.SPEProgramEnd:
			v.runEnded[run] = true
		case event.SPEWriteOutMboxExit:
			v.spuOutWrites++
		case event.PPEReadOutMboxExit:
			v.ppeOutReads++
		case event.PPEWriteInMboxExit:
			v.ppeInWrites++
		case event.SPEReadInMboxExit:
			v.spuInReads++
		}
	}
}

// result returns the scan-order findings followed by the end-of-input
// checks, nil when there are none. It leaves the accumulator untouched.
func (v *validateAcc) result(meta *traceio.Meta, conf Confidence, truncated bool) []Issue {
	issues := slices.Clone(v.issues)
	report := func(sev, format string, args ...interface{}) {
		issues = append(issues, issuef(sev, format, args...))
	}
	for core, stack := range v.openPairs {
		for _, id := range stack {
			sev := "error"
			if truncated {
				sev = "warn"
			}
			report(sev, "core %d: %s never exited", core, id)
		}
	}
	for run := range v.runsSeen {
		if !v.runEnded[run] && !truncated {
			report("error", "run %d has no SPE_PROGRAM_END", run)
		}
	}
	// Conservation checks are only meaningful when both sides' event
	// groups were recorded and neither side lost records (a crash or
	// salvage can destroy one side of a handshake that did happen).
	groups := groupMaskFromMeta(meta.Groups)
	if groups&event.GroupMailbox != 0 && groups&event.GroupHost != 0 &&
		!truncated && !conf.Degraded() {
		if v.ppeOutReads > v.spuOutWrites {
			report("error", "mailbox conservation violated: PPE read %d outbound values but SPUs wrote %d",
				v.ppeOutReads, v.spuOutWrites)
		}
		if v.spuInReads > v.ppeInWrites {
			report("error", "mailbox conservation violated: SPUs read %d inbound values but PPE wrote %d",
				v.spuInReads, v.ppeInWrites)
		}
	}
	return issues
}

// Validate checks structural invariants of the merged stream and appends
// findings to tr.Issues, returning the new findings:
//
//   - per-core timestamps are monotonically non-decreasing,
//   - Enter/Exit events pair up properly per core (no unmatched or
//     crossed pairs),
//   - every SPE run is bracketed by SPE_PROGRAM_START / SPE_PROGRAM_END
//     (unless the trace is truncated),
//   - string references resolve,
//   - mailbox conservation: SPU outbound writes >= PPE outbound reads,
//     and likewise for the inbound direction.
func Validate(tr *Trace) []Issue {
	var v validateAcc
	v.fold(tr.segment(), tr.Strings)
	issues := v.result(&tr.Meta, tr.Confidence, tr.Truncated)
	tr.Issues = append(tr.Issues, issues...)
	return issues
}

// groupMaskFromMeta parses the "a|b|c" group list recorded in trace
// metadata back into a mask; unknown names are ignored.
func groupMaskFromMeta(s string) event.Group {
	var mask event.Group
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '|' {
			if g, ok := event.ParseGroup(s[start:i]); ok {
				mask |= g
			}
			start = i + 1
		}
	}
	return mask
}

// Errors filters issues down to severity "error".
func Errors(issues []Issue) []Issue {
	var out []Issue
	for _, i := range issues {
		if i.Severity == "error" {
			out = append(out, i)
		}
	}
	return out
}
