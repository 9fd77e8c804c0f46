// Package core implements the PDT tracing runtime: the instrumented SPU
// and Host wrappers (the model's equivalent of the instrumented SPE/libspe2
// libraries), per-SPE trace buffers resident in the simulated local store
// and flushed to main memory by real simulated DMA, a host-side PPE buffer,
// configuration, clock-correlation metadata, and the trace session writer.
package core

import (
	"encoding/xml"
	"fmt"
	"io"
	"os"

	"github.com/celltrace/pdt/internal/core/event"
)

// Config selects what is traced and how trace buffers behave. The zero
// value traces nothing; start from DefaultTraceConfig.
type Config struct {
	// Groups is the enabled event-group mask.
	Groups event.Group
	// EventOverride force-enables or -disables individual events,
	// overriding the group mask.
	EventOverride map[event.ID]bool

	// SPEBufferSize is the local-store trace buffer size in bytes. With
	// DoubleBuffered it is split into two halves. It is carved from the
	// top of the local store; applications must not touch that region.
	SPEBufferSize int
	// DoubleBuffered selects two half-buffers with asynchronous flushes
	// (the flush DMA overlaps tracing into the other half) instead of a
	// single buffer with a synchronous flush.
	DoubleBuffered bool
	// FlushTagA/FlushTagB are the MFC tag groups reserved for trace
	// flush DMA; applications must not use them while traced.
	FlushTagA, FlushTagB int

	// MainBufferPerSPE is the size of the per-program main-memory trace
	// region. When it fills, further records from that program are
	// dropped and counted — unless WrapMain is set.
	MainBufferPerSPE int
	// WrapMain makes a full main-memory region wrap around and overwrite
	// its oldest flushes, keeping the *last* records of the run instead
	// of the first (the mode for long-running programs where the
	// interesting behaviour is at the end). Overwritten records are
	// counted as drops in the metadata.
	WrapMain bool

	// FlushRetryMax bounds how many times a failed flush DMA is retried
	// before the bufferful is dropped (drop-newest) with exact per-SPE
	// accounting; WrapMain remains the drop policy for a full main
	// region. FlushRetryBackoff is the first retry's busy-wait in cycles;
	// each further retry doubles it. Zero values select the defaults
	// (3 retries, 256 cycles).
	FlushRetryMax     int
	FlushRetryBackoff uint64

	// SPEEventCost and PPEEventCost model the instrumentation cost of
	// recording one event (timestamp read + buffer write), in cycles.
	SPEEventCost uint64
	PPEEventCost uint64

	// WindowStart/WindowEnd restrict recording to a cycle window
	// (both zero = always on). Events outside the window still pay a
	// small check but are not recorded — PDT's dynamic-enable knob for
	// capturing only the steady state of a long run.
	WindowStart, WindowEnd uint64

	// Workload and Params annotate the trace metadata.
	Workload string
	Params   map[string]string
}

// DefaultTraceConfig traces every group with a 16 KiB double-buffered
// local-store buffer, matching the PDT defaults.
func DefaultTraceConfig() Config {
	return Config{
		Groups:            event.GroupAll,
		SPEBufferSize:     16 * 1024,
		DoubleBuffered:    true,
		FlushTagA:         31,
		FlushTagB:         30,
		MainBufferPerSPE:  4 * 1024 * 1024,
		FlushRetryMax:     3,
		FlushRetryBackoff: 256,
		SPEEventCost:      200,
		PPEEventCost:      100,
	}
}

// flushRetryMax and flushRetryBackoff apply the documented defaults for
// zero-valued configurations (hand-built Configs predating the fields).
func (c *Config) flushRetryMax() int {
	if c.FlushRetryMax <= 0 {
		return 3
	}
	return c.FlushRetryMax
}

func (c *Config) flushRetryBackoff() uint64 {
	if c.FlushRetryBackoff == 0 {
		return 256
	}
	return c.FlushRetryBackoff
}

// EventOn reports whether records of the given event type are collected.
func (c *Config) EventOn(id event.ID) bool {
	if on, ok := c.EventOverride[id]; ok {
		return on
	}
	info, ok := event.Lookup(id)
	if !ok {
		return false
	}
	return c.Groups&info.Group != 0
}

// validate panics on configurations the runtime cannot honor.
func (c *Config) validate() {
	if c.SPEBufferSize < 512 {
		panic("core: SPEBufferSize must be at least 512 bytes")
	}
	if c.SPEBufferSize%32 != 0 {
		panic("core: SPEBufferSize must be a multiple of 32")
	}
	if c.MainBufferPerSPE < c.SPEBufferSize {
		panic("core: MainBufferPerSPE smaller than the SPE buffer")
	}
	for _, tag := range []int{c.FlushTagA, c.FlushTagB} {
		if tag < 0 || tag >= 32 {
			panic(fmt.Sprintf("core: flush tag %d out of range", tag))
		}
	}
	if c.FlushTagA == c.FlushTagB {
		panic("core: flush tags must differ")
	}
}

// xmlConfig is the on-disk XML schema (the paper's PDT was configured the
// same way: an XML file selecting event groups and buffer parameters).
type xmlConfig struct {
	XMLName xml.Name `xml:"pdt"`
	Buffer  struct {
		SPE            int  `xml:"spe,attr"`
		DoubleBuffered bool `xml:"doubleBuffered,attr"`
		FlushTagA      int  `xml:"flushTagA,attr"`
		FlushTagB      int  `xml:"flushTagB,attr"`
		MainPerSPE     int  `xml:"mainPerSPE,attr"`
		Wrap           bool `xml:"wrap,attr"`
	} `xml:"buffer"`
	Cost struct {
		SPEEvent uint64 `xml:"speEvent,attr"`
		PPEEvent uint64 `xml:"ppeEvent,attr"`
	} `xml:"cost"`
	Groups []struct {
		Name    string `xml:"name,attr"`
		Enabled bool   `xml:"enabled,attr"`
	} `xml:"groups>group"`
	Events []struct {
		Name    string `xml:"name,attr"`
		Enabled bool   `xml:"enabled,attr"`
	} `xml:"events>event"`
}

// ParseConfigXML reads an XML configuration, applying it over the
// defaults: groups listed replace the default "all" mask (enabled ones are
// OR'ed in, and listing any group switches to an explicit mask); events
// listed become per-event overrides.
func ParseConfigXML(r io.Reader) (Config, error) {
	cfg := DefaultTraceConfig()
	var x xmlConfig
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&x); err != nil {
		return cfg, fmt.Errorf("core: parse config: %w", err)
	}
	if x.Buffer.SPE != 0 {
		cfg.SPEBufferSize = x.Buffer.SPE
	}
	if x.Buffer.MainPerSPE != 0 {
		cfg.MainBufferPerSPE = x.Buffer.MainPerSPE
	}
	if x.Buffer.FlushTagA != 0 || x.Buffer.FlushTagB != 0 {
		cfg.FlushTagA, cfg.FlushTagB = x.Buffer.FlushTagA, x.Buffer.FlushTagB
	}
	cfg.DoubleBuffered = x.Buffer.DoubleBuffered
	cfg.WrapMain = x.Buffer.Wrap
	if x.Cost.SPEEvent != 0 {
		cfg.SPEEventCost = x.Cost.SPEEvent
	}
	if x.Cost.PPEEvent != 0 {
		cfg.PPEEventCost = x.Cost.PPEEvent
	}
	if len(x.Groups) > 0 {
		cfg.Groups = 0
		for _, g := range x.Groups {
			bit, ok := event.ParseGroup(g.Name)
			if !ok {
				return cfg, fmt.Errorf("core: unknown group %q", g.Name)
			}
			if g.Enabled {
				cfg.Groups |= bit
			}
		}
	}
	for _, e := range x.Events {
		info, ok := event.ByName(e.Name)
		if !ok {
			return cfg, fmt.Errorf("core: unknown event %q", e.Name)
		}
		if cfg.EventOverride == nil {
			cfg.EventOverride = map[event.ID]bool{}
		}
		cfg.EventOverride[info.ID] = e.Enabled
	}
	return cfg, nil
}

// LoadConfigFile reads an XML configuration file.
func LoadConfigFile(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	return ParseConfigXML(f)
}

// GroupsString names the enabled groups for metadata.
func (c *Config) GroupsString() string { return c.Groups.String() }
