package jobs

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/celltrace/pdt/internal/faults"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "jobs.journal")
}

func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	j, recs, st, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || st.Records != 0 || st.Damaged != 0 {
		t.Fatalf("fresh journal not empty: %v %+v", recs, st)
	}
	want := []Record{
		{Op: "accept", ID: "j-1", Kind: "summary", Key: "ab12", Webhook: "http://x", MaxAttempts: 3},
		{Op: "start", ID: "j-1", Attempt: 1},
		{Op: "fail", ID: "j-1", Attempt: 1, Err: "boom"},
		{Op: "start", ID: "j-1", Attempt: 2},
		{Op: "done", ID: "j-1", CRC: 0xdeadbeef},
		{Op: "notified", ID: "j-1"},
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, got, st, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Damaged != 0 || len(got) != len(want) {
		t.Fatalf("replay: %d records, %d damaged", len(got), st.Damaged)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestJournalTornTail: a crash mid-append leaves a partial last line;
// replay must drop exactly that line and keep everything before it.
func TestJournalTornTail(t *testing.T) {
	path := journalPath(t)
	j, _, _, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Op: "accept", ID: "j-1", Kind: "gaps", Key: "cd"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Op: "start", ID: "j-1", Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the tail: drop the last 7 bytes of the final line.
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	_, recs, st, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Op != "accept" {
		t.Fatalf("torn tail replay: %+v", recs)
	}
	if st.Damaged != 1 {
		t.Fatalf("torn tail not counted as damage: %+v", st)
	}
}

// TestJournalInjectedTorn: the fault plan tears an append; the error
// surfaces, the prefix persists, and replay over the damaged file still
// yields every intact record.
func TestJournalInjectedTorn(t *testing.T) {
	path := journalPath(t)
	plan := &faults.ServicePlan{Torns: []faults.TornRule{{Nth: 2, Keep: -1}}}
	j, _, _, err := OpenJournal(path, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Op: "accept", ID: "j-9", Kind: "profile", Key: "ee"}); err != nil {
		t.Fatal(err)
	}
	err = j.Append(Record{Op: "start", ID: "j-9", Attempt: 1})
	if err == nil || !strings.Contains(err.Error(), "torn write") {
		t.Fatalf("torn append returned %v", err)
	}
	j.Close()

	_, recs, st, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "j-9" || recs[0].Op != "accept" {
		t.Fatalf("replay after torn append: %+v", recs)
	}
	if st.Damaged != 1 {
		t.Fatalf("torn line not counted: %+v", st)
	}
}

func TestJournalDisable(t *testing.T) {
	j, _, _, err := OpenJournal(journalPath(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Disable()
	if err := j.Append(Record{Op: "accept", ID: "j-1"}); err != ErrJournalDisabled {
		t.Fatalf("append after Disable: %v", err)
	}
}

// TestJournalCorruptLines: flipped bytes, bad magic, bad CRC, and junk
// lines are all dropped and counted; intact neighbours survive.
func TestJournalCorruptLines(t *testing.T) {
	good := func(r Record) string {
		b, _ := json.Marshal(r)
		return fmt.Sprintf("%s %08x %s", journalMagic, crc32.ChecksumIEEE(b), b)
	}
	lines := []string{
		good(Record{Op: "accept", ID: "j-1", Kind: "summary", Key: "aa"}),
		"garbage line",
		"pdtj1 00000000 {\"op\":\"start\",\"id\":\"j-1\"}",                              // wrong CRC
		"pdtj2 12345678 {\"op\":\"start\",\"id\":\"j-1\"}",                              // wrong magic
		good(Record{ID: "j-1"}),                                                         // missing op
		strings.Replace(good(Record{Op: "done", ID: "j-1", CRC: 7}), "done", "dune", 1), // payload flip
		good(Record{Op: "done", ID: "j-1", CRC: 42}),
	}
	recs, st := parseJournal([]byte(strings.Join(lines, "\n") + "\n"))
	if len(recs) != 2 {
		t.Fatalf("got %d records: %+v", len(recs), recs)
	}
	if recs[0].Op != "accept" || recs[1].Op != "done" || recs[1].CRC != 42 {
		t.Fatalf("wrong survivors: %+v", recs)
	}
	if st.Damaged != 5 {
		t.Fatalf("damaged=%d want 5", st.Damaged)
	}
}

// FuzzJournalReplay: replay must never panic and must never accept a
// line whose CRC does not match its payload.
func FuzzJournalReplay(f *testing.F) {
	seed := func(r Record) []byte {
		b, _ := json.Marshal(r)
		return []byte(fmt.Sprintf("%s %08x %s\n", journalMagic, crc32.ChecksumIEEE(b), b))
	}
	f.Add(seed(Record{Op: "accept", ID: "j-1", Kind: "summary", Key: "ab", MaxAttempts: 3}))
	f.Add(seed(Record{Op: "done", ID: "j-1", CRC: 0xdeadbeef}))
	f.Add([]byte("pdtj1 00000000 {}\n"))
	f.Add([]byte("pdtj1 deadbeef {\"op\":\"start\",\"id\":\"j\"}\npdtj1"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, st := parseJournal(raw)
		if st.Records != len(recs) {
			t.Fatalf("stats/records mismatch: %d vs %d", st.Records, len(recs))
		}
		for _, r := range recs {
			if r.Op == "" || r.ID == "" {
				t.Fatalf("accepted record without op/id: %+v", r)
			}
		}
	})
}

func TestJournalPath(t *testing.T) {
	path := journalPath(t)
	j, _, _, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Path() != path {
		t.Fatalf("Path() = %q, want %q", j.Path(), path)
	}
}
