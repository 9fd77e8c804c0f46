package analyzer

import (
	"fmt"
	"sort"
	"strings"
)

// stateGlyphs render one bucket of a core lane in the ASCII timeline.
var stateGlyphs = [numStates]byte{'#', 'd', 'm', 's', 'y', 'f', 'w'}

// stateColors render interval classes in the SVG timeline.
var stateColors = [numStates]string{"#4caf50", "#e53935", "#fb8c00", "#8e24aa", "#3949ab", "#757575", "#00897b"}

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
	ivs := append(Intervals(tr), PPEIntervals(tr)...)
	runs := map[int][]Interval{}
	for _, iv := range ivs {
		runs[iv.Run] = append(runs[iv.Run], iv)
	}
	runIDs := make([]int, 0, len(runs))
	for r := range runs {
		runIDs = append(runIDs, r)
	}
	sort.Ints(runIDs)

	span := end - start
	var b strings.Builder
	fmt.Fprintf(&b, "timeline: %d timebase ticks (%d buckets of %d)\n",
		span, width, (span+uint64(width)-1)/uint64(width))
	for _, run := range runIDs {
		lane := make([]byte, width)
		for i := range lane {
			lane[i] = '.'
		}
		// Per bucket, accumulate tick counts per state and pick the max.
		occupancy := make([][numStates]uint64, width)
		for _, iv := range runs[run] {
			b0 := int((iv.Start - start) * uint64(width) / span)
			b1 := int((iv.End - start) * uint64(width) / span)
			if b1 >= width {
				b1 = width - 1
			}
			for bk := b0; bk <= b1; bk++ {
				lo := start + uint64(bk)*span/uint64(width)
				hi := start + uint64(bk+1)*span/uint64(width)
				s, e := iv.Start, iv.End
				if s < lo {
					s = lo
				}
				if e > hi {
					e = hi
				}
				if e > s {
					occupancy[bk][iv.State] += e - s
				}
			}
		}
		for i := range lane {
			best := uint64(0)
			for st, ticks := range occupancy[i] {
				if ticks > best {
					best = ticks
					lane[i] = stateGlyphs[st]
				}
			}
		}
		label := fmt.Sprintf("PPE.%d", -1-run)
		if run == -1 {
			label = "PPE"
		}
		if run >= 0 && run < len(tr.Meta.Anchors) {
			label = fmt.Sprintf("SPE%d %s", tr.Meta.Anchors[run].SPE, tr.Meta.Anchors[run].Program)
		}
		fmt.Fprintf(&b, "%-17s |%s|\n", label, lane)
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
	ivs := append(Intervals(tr), PPEIntervals(tr)...)
	runs := map[int]bool{}
	for _, iv := range ivs {
		runs[iv.Run] = true
	}
	runIDs := make([]int, 0, len(runs))
	for r := range runs {
		runIDs = append(runIDs, r)
	}
	sort.Ints(runIDs)
	laneIdx := map[int]int{}
	for i, r := range runIDs {
		laneIdx[r] = i
	}

	const laneH, pad, labelW = 24, 4, 140
	height := len(runIDs)*(laneH+pad) + pad + 30
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
	for _, iv := range ivs {
		y := pad + laneIdx[iv.Run]*(laneH+pad)
		x0, x1 := x(iv.Start), x(iv.End)
		if x1-x0 < 0.25 {
			x1 = x0 + 0.25
		}
		fmt.Fprintf(&b, `<rect x="%.2f" y="%d" width="%.2f" height="%d" fill="%s"><title>run %d %s [%d,%d)</title></rect>`,
			x0, y, x1-x0, laneH, stateColors[iv.State], iv.Run, iv.State, iv.Start, iv.End)
		b.WriteString("\n")
	}
	for _, run := range runIDs {
		y := pad + laneIdx[run]*(laneH+pad) + laneH/2 + 4
		label := fmt.Sprintf("PPE.%d", -1-run)
		if run == -1 {
			label = "PPE"
		}
		if run >= 0 && run < len(tr.Meta.Anchors) {
			a := tr.Meta.Anchors[run]
			label = fmt.Sprintf("SPE%d %s", a.SPE, a.Program)
		}
		fmt.Fprintf(&b, `<text x="%d" y="%d">%s</text>`, pad, y, xmlEscape(label))
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
