package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestIsTemp covers every naming scheme that shares a directory with
// WriteFile temps. The real temps are the names WriteFile itself creates
// for each record kind — manager snapshot, root dedup table, offload
// record, spool record — captured from inside the write callback; the
// hostile rows are records whose stream names embed the temp marker.
// Every successful write must leave only its record behind.
func TestIsTemp(t *testing.T) {
	dir := t.TempDir()
	records := []string{
		"manager.snapshot",
		"cluster.seqs",
		"a.stream",
		"a.stream.tmp-1.stream",
		"a.0000000000000001.sum",
		"a.sum.tmp-x.0000000000000002.sum",
	}
	for _, record := range records {
		var tmp string
		err := WriteFile(dir, record, func(w io.Writer) error {
			tmp = filepath.Base(w.(*os.File).Name())
			_, err := io.WriteString(w, record)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if !IsTemp(tmp) {
			t.Errorf("IsTemp(%q) = false for the temp of record %q", tmp, record)
		}
		if IsTemp(record) {
			t.Errorf("IsTemp(%q) = true for a record", record)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(records) {
		t.Fatalf("dir holds %d files after %d writes, want only the records", len(entries), len(records))
	}
	for _, c := range []struct {
		name string
		want bool
	}{
		{"manager.snapshot.tmp-456", true},
		{"cluster.seqs.tmp-123", true},
		{"b.stream.tmp-123", true},
		{"a.stream.tmp-1.stream.tmp-123456", true},
		{"zz.0000000000000001.sum.tmp-123456", true},
		{"a.sum.tmp-x.0000000000000002.sum.tmp-987654", true},
		{"a.stream.tmp-1.stream", false},
		{"a.sum.tmp-x.0000000000000002.sum", false},
		{"a.0000000000000001.sum.bad", false},
		{"a.sum.tmp-x.0000000000000002.sum.bad", false},
		{"streams", false},
		{"", false},
	} {
		if got := IsTemp(c.name); got != c.want {
			t.Errorf("IsTemp(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestWriteFileFailedWriteKeepsPrevious: a write callback that fails after
// emitting partial bytes must leave the previous record byte-identical
// and no temp behind, and surface the callback's error.
func TestWriteFileFailedWriteKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFile(dir, "rec", func(w io.Writer) error {
		_, err := io.WriteString(w, "previous")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(dir, "rec", func(w io.Writer) error {
		if _, err := io.WriteString(w, "torn"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile error = %v, want %v", err, boom)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dir holds %d files after a failed write, want only the record", len(entries))
	}
	if got, err := os.ReadFile(filepath.Join(dir, "rec")); err != nil || string(got) != "previous" {
		t.Fatalf("previous record = %q, %v; want it byte-identical", got, err)
	}
}
