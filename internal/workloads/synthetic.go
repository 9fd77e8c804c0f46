package workloads

import (
	"fmt"

	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/core"
)

// Synthetic is the controlled event-rate generator used by the tracing-
// overhead experiments: every SPE computes Gap cycles then records one
// user event, Events times. The event rate is therefore known exactly
// (one event per Gap(+instrumentation) cycles per SPE), which makes
// overhead-vs-rate and buffer-size sweeps interpretable.
type Synthetic struct {
	Events int // user events per SPE
	Gap    int // compute cycles between events

	sink uint64
}

// NewSynthetic returns the default 10k-events, 1000-cycle-gap generator.
func NewSynthetic() *Synthetic { return &Synthetic{Events: 10000, Gap: 1000} }

func (w *Synthetic) Configure(params map[string]string) error {
	if err := configure(params, w.params()); err != nil {
		return err
	}
	if w.Events <= 0 || w.Gap < 0 {
		return fmt.Errorf("synthetic: events must be positive and gap non-negative")
	}
	return nil
}

func (w *Synthetic) params() []param {
	return []param{{"events", &w.Events}, {"gap", &w.Gap}}
}

func (w *Synthetic) Params() map[string]string { return paramMap(w.params()) }

func (w *Synthetic) Prepare(m *cell.Machine) error {
	w.sink = m.Alloc(8, 8)
	m.RunMain(func(h cell.Host) {
		var hs []*cell.SPEHandle
		for s := 0; s < m.NumSPEs(); s++ {
			hs = append(hs, h.Run(s, "synthetic", func(spu cell.SPU) uint32 {
				for i := 0; i < w.Events; i++ {
					spu.Compute(uint64(w.Gap))
					core.User(spu, 1, uint64(i), 0)
				}
				return 0
			}))
		}
		for _, hd := range hs {
			h.Wait(hd)
		}
		h.Machine().WriteWord64(w.sink, uint64(w.Events))
	})
	return nil
}

func (w *Synthetic) Verify(m *cell.Machine) error {
	if got := m.ReadWord64(w.sink); got != uint64(w.Events) {
		return fmt.Errorf("synthetic: sink = %d, want %d", got, w.Events)
	}
	return nil
}
