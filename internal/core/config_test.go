package core

import (
	"strings"
	"testing"

	"github.com/celltrace/pdt/internal/core/event"
)

func TestDefaultTraceConfig(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.validate()
	if cfg.Groups != event.GroupAll {
		t.Fatal("default should enable all groups")
	}
	if !cfg.EventOn(event.SPEMFCGet) || !cfg.EventOn(event.PPEWriteSignal) {
		t.Fatal("default config disables events")
	}
}

func TestEventOnGroupMask(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.Groups = event.GroupMFC
	if !cfg.EventOn(event.SPEMFCGet) {
		t.Fatal("MFC event off under GroupMFC")
	}
	if cfg.EventOn(event.SPEReadInMboxEnter) {
		t.Fatal("mailbox event on under GroupMFC")
	}
}

func TestEventOverride(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.Groups = event.GroupMFC
	cfg.EventOverride = map[event.ID]bool{
		event.SPEMFCGet:          false, // disable within enabled group
		event.SPEReadInMboxEnter: true,  // enable within disabled group
	}
	if cfg.EventOn(event.SPEMFCGet) {
		t.Fatal("override-off ignored")
	}
	if !cfg.EventOn(event.SPEReadInMboxEnter) {
		t.Fatal("override-on ignored")
	}
	if !cfg.EventOn(event.SPEMFCPut) {
		t.Fatal("non-overridden group event lost")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"tiny buffer", func(c *Config) { c.SPEBufferSize = 128 }},
		{"unaligned buffer", func(c *Config) { c.SPEBufferSize = 1000 }},
		{"main smaller than spe", func(c *Config) { c.MainBufferPerSPE = 1024; c.SPEBufferSize = 2048 }},
		{"bad flush tag", func(c *Config) { c.FlushTagA = 32 }},
		{"equal flush tags", func(c *Config) { c.FlushTagB = c.FlushTagA }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultTraceConfig()
			tc.mut(&cfg)
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			cfg.validate()
		})
	}
}

const sampleXML = `
<pdt>
  <buffer spe="8192" doubleBuffered="true" flushTagA="31" flushTagB="30" mainPerSPE="1048576"/>
  <cost speEvent="150" ppeEvent="60"/>
  <groups>
    <group name="mfc" enabled="true"/>
    <group name="mailbox" enabled="true"/>
    <group name="lifecycle" enabled="true"/>
    <group name="user" enabled="false"/>
  </groups>
  <events>
    <event name="SPE_MFC_GETL" enabled="false"/>
  </events>
</pdt>`

func TestParseConfigXML(t *testing.T) {
	cfg, err := ParseConfigXML(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SPEBufferSize != 8192 || !cfg.DoubleBuffered || cfg.MainBufferPerSPE != 1<<20 {
		t.Fatalf("buffer cfg = %+v", cfg)
	}
	if cfg.SPEEventCost != 150 || cfg.PPEEventCost != 60 {
		t.Fatalf("costs = %d/%d", cfg.SPEEventCost, cfg.PPEEventCost)
	}
	want := event.GroupMFC | event.GroupMailbox | event.GroupLifecycle
	if cfg.Groups != want {
		t.Fatalf("groups = %v, want %v", cfg.Groups, want)
	}
	if cfg.EventOn(event.SPEMFCGetList) {
		t.Fatal("per-event disable ignored")
	}
	if !cfg.EventOn(event.SPEMFCGet) {
		t.Fatal("group-enabled event off")
	}
}

func TestParseConfigXMLErrors(t *testing.T) {
	if _, err := ParseConfigXML(strings.NewReader("<pdt><groups><group name='bogus' enabled='true'/></groups></pdt>")); err == nil {
		t.Fatal("unknown group accepted")
	}
	if _, err := ParseConfigXML(strings.NewReader("<pdt><events><event name='NOPE' enabled='true'/></events></pdt>")); err == nil {
		t.Fatal("unknown event accepted")
	}
	if _, err := ParseConfigXML(strings.NewReader("not xml")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadConfigFileMissing(t *testing.T) {
	if _, err := LoadConfigFile("/nonexistent/pdt.xml"); err == nil {
		t.Fatal("missing file accepted")
	}
}
