package analyzer

import (
	"fmt"
	"strings"
)

// stateGlyphs render one bucket of a core lane in the ASCII timeline.
var stateGlyphs = [numStates]byte{'#', 'd', 'm', 's', 'y', 'f', 'w'}

// stateColors render interval classes in the SVG timeline.
var stateColors = [numStates]string{"#4caf50", "#e53935", "#fb8c00", "#8e24aa", "#3949ab", "#757575", "#00897b"}

// lane is one row of the interval views: its label and its intervals.
type lane struct {
	label string
	ivs   []Interval
}

// lanes lists the rows of the interval views: the PPE threads from the
// last spawned to the main thread, then the SPE runs in run order. A
// thread or run with no interval has no lane.
func lanes(tr *Trace) []lane {
	var out []lane
	ppe := PPEIntervals(tr) // the main thread first, then the spawned ones
	for end := len(ppe); end > 0; {
		run := ppe[end-1].Run
		begin := end - 1
		for begin > 0 && ppe[begin-1].Run == run {
			begin--
		}
		label := "PPE"
		if run != -1 {
			label = fmt.Sprintf("PPE.%d", -1-run)
		}
		out = append(out, lane{label, ppe[begin:end]})
		end = begin
	}
	for run, a := range tr.Meta.Anchors {
		if ivs := RunIntervals(tr, run); len(ivs) > 0 {
			out = append(out, lane{fmt.Sprintf("SPE%d %s", a.SPE, a.Program), ivs})
		}
	}
	return out
}

// clipBuckets cuts the span [s, e) at the bounds of n equal time buckets
// over [start, start+span) and passes add each bucket it overlaps with
// the ticks of the overlap.
func clipBuckets(start, span uint64, n int, s, e uint64, add func(bucket int, ticks uint64)) {
	b0 := int((s - start) * uint64(n) / span)
	b1 := min(int((e-start)*uint64(n)/span), n-1)
	for bk := b0; bk <= b1; bk++ {
		lo := start + uint64(bk)*span/uint64(n)
		hi := start + uint64(bk+1)*span/uint64(n)
		if s, e := max(s, lo), min(e, hi); e > s {
			add(bk, e-s)
		}
	}
}

// Timeline renders an ASCII Gantt chart: one lane per SPE run, one column
// per time bucket, glyph = state occupying most of the bucket
// ('#'=compute, 'd'=dma-wait, 'm'=mbox-wait, 's'=signal-wait,
// 'y'=sync-wait, 'f'=trace-flush, '.'=idle/not running).
func Timeline(tr *Trace, width int) string {
	if width < 10 {
		width = 10
	}
	start, end := tr.Span()
	if end <= start {
		return "(empty trace)\n"
	}
	span := end - start
	var b strings.Builder
	fmt.Fprintf(&b, "timeline: %d timebase ticks (%d buckets of %d)\n",
		span, width, (span+uint64(width)-1)/uint64(width))
	for _, ln := range lanes(tr) {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		// Per bucket, accumulate tick counts per state and pick the max.
		occupancy := make([][numStates]uint64, width)
		for _, iv := range ln.ivs {
			clipBuckets(start, span, width, iv.Start, iv.End, func(bk int, ticks uint64) {
				occupancy[bk][iv.State] += ticks
			})
		}
		for i := range row {
			best := uint64(0)
			for st, ticks := range occupancy[i] {
				if ticks > best {
					best = ticks
					row[i] = stateGlyphs[st]
				}
			}
		}
		fmt.Fprintf(&b, "%-17s |%s|\n", ln.label, row)
	}
	b.WriteString("legend: #=compute d=dma-wait m=mbox-wait s=signal-wait y=sync-wait f=trace-flush w=spe-wait .=idle\n")
	return b.String()
}

// SVGTimeline renders the interval timeline as a standalone SVG document,
// one lane per SPE run, colored by state.
func SVGTimeline(tr *Trace, pxWidth int) string {
	if pxWidth < 100 {
		pxWidth = 100
	}
	start, end := tr.Span()
	lns := lanes(tr)
	const laneH, pad, labelW = 24, 4, 140
	height := len(lns)*(laneH+pad) + pad + 30
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="12">`,
		pxWidth+labelW+2*pad, height)
	b.WriteString("\n")
	span := end - start
	if span == 0 {
		span = 1
	}
	x := func(t uint64) float64 {
		return float64(labelW+pad) + float64(t-start)/float64(span)*float64(pxWidth)
	}
	rects := func(i int) {
		y := pad + i*(laneH+pad)
		for _, iv := range lns[i].ivs {
			x0, x1 := x(iv.Start), x(iv.End)
			if x1-x0 < 0.25 {
				x1 = x0 + 0.25
			}
			fmt.Fprintf(&b, `<rect x="%.2f" y="%d" width="%.2f" height="%d" fill="%s"><title>run %d %s [%d,%d)</title></rect>`,
				x0, y, x1-x0, laneH, stateColors[iv.State], iv.Run, iv.State, iv.Start, iv.End)
			b.WriteString("\n")
		}
	}
	// The rectangles keep the order the pdt-ta goldens pin: the SPE
	// lanes' first, then the PPE threads' from the main thread out.
	ppe := 0
	for ppe < len(lns) && lns[ppe].ivs[0].Run < 0 {
		ppe++
	}
	for i := ppe; i < len(lns); i++ {
		rects(i)
	}
	for i := ppe - 1; i >= 0; i-- {
		rects(i)
	}
	for i, ln := range lns {
		y := pad + i*(laneH+pad) + laneH/2 + 4
		fmt.Fprintf(&b, `<text x="%d" y="%d">%s</text>`, pad, y, xmlEscape(ln.label))
		b.WriteString("\n")
	}
	// Legend.
	lx := labelW + pad
	ly := height - 18
	for st := State(0); st < numStates; st++ {
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/><text x="%d" y="%d">%s</text>`,
			lx, ly, stateColors[st], lx+14, ly+10, st)
		b.WriteString("\n")
		lx += 110
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
