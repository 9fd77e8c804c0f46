package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E1", "E5", "E10", "E11"} {
		if !strings.Contains(out.String(), id) {
			t.Fatalf("list missing %s:\n%s", id, out.String())
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "E99"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestSingleExperimentQuick(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "E1", "-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "E1: Table 1") {
		t.Fatalf("output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "SPE_MFC_GET") {
		t.Fatal("table body missing")
	}
}

func TestQuickUseCaseExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "E5", "-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "imbalance") {
		t.Fatalf("output:\n%s", out.String())
	}
}
