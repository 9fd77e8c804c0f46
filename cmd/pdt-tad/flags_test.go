package main

import (
	"flag"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestServiceDocMatchesFlags holds docs/SERVICE.md to the flag set: every
// flag is named somewhere in it, every flag in its "Resource limits"
// table exists, and each row's default is the flag's default.
func TestServiceDocMatchesFlags(t *testing.T) {
	raw, err := os.ReadFile("../../docs/SERVICE.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	cfg := defaultConfig()
	fs := flags(&cfg)
	fs.VisitAll(func(f *flag.Flag) {
		if !regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(f.Name) + `([^\w-]|$)`).MatchString(doc) {
			t.Errorf("-%s is not named in SERVICE.md", f.Name)
		}
	})

	_, table, ok := strings.Cut(doc, "## Resource limits and admission control\n")
	if !ok {
		t.Fatal(`SERVICE.md has no "Resource limits and admission control" section`)
	}
	table, _, _ = strings.Cut(table, "\n## ")
	rows := 0
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "| `-") {
			continue
		}
		cells := strings.Split(line, "|")
		name := strings.Trim(strings.TrimSpace(cells[1]), "`-")
		f := fs.Lookup(name)
		if f == nil {
			t.Errorf("SERVICE.md lists -%s, which is not a flag", name)
			continue
		}
		rows++
		want := strings.TrimSpace(cells[2])
		if !docDefaultIs(want, f) {
			t.Errorf("SERVICE.md gives -%s the default %q; the flag's is %q", name, want, f.DefValue)
		}
	}
	if rows == 0 {
		t.Fatal("no flag rows in SERVICE.md's limits table")
	}
}

// docDefaultIs reports whether a default as SERVICE.md spells it ("64
// MiB", "50M", "2m", "off", "0 (unbounded)") is f's default.
func docDefaultIs(s string, f *flag.Flag) bool {
	if v, ok := f.Value.(flag.Getter).Get().(time.Duration); ok {
		d, err := time.ParseDuration(s)
		return err == nil && d == v
	}
	if s == "off" {
		return f.DefValue == ""
	}
	s, _, _ = strings.Cut(s, " (")
	n, unit, _ := strings.Cut(s, " ")
	mul := map[string]int64{"": 1, "KiB": 1 << 10, "MiB": 1 << 20, "GiB": 1 << 30}[unit]
	if unit == "" && strings.HasSuffix(n, "M") {
		n, mul = strings.TrimSuffix(n, "M"), 1_000_000
	}
	v, err := strconv.ParseInt(n, 10, 64)
	return err == nil && mul != 0 && strconv.FormatInt(v*mul, 10) == f.DefValue
}
