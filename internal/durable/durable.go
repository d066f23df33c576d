// Package durable is the one way a record file is made crash-safe on disk:
// write a uniquely named temp file beside it, fsync it, rename it over the
// record, then fsync the directory. The rename makes the replacement
// atomic — a crash mid-write never clobbers the previous good record — and
// the directory fsync makes it durable, because a rename alone only
// updates the in-memory dentry cache and a power cut could silently roll
// it back after the write reported success.
//
// A crash between CreateTemp and the rename leaves the temp file behind.
// IsTemp recognises those leftovers so directory listings can sweep them
// without ever mistaking a record for one.
package durable

import (
	"io"
	"os"
	"path/filepath"
	"strings"
)

// tempMarker separates a record name from CreateTemp's random suffix.
const tempMarker = ".tmp-"

// WriteFile atomically and durably replaces dir/name with the bytes write
// produces. The syscall order is CreateTemp(dir, name+".tmp-*"), write,
// fsync, close, rename, fsync(dir); the temp file is removed on every
// failure up to and including the rename. Once WriteFile returns nil the
// record survives a crash. An error from the final directory fsync means
// the new record is in place but may not survive a power cut.
func WriteFile(dir, name string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(dir, name+tempMarker+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename just completed inside it is
// durable, not merely visible.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// IsTemp reports whether a directory entry name is a leftover WriteFile
// temp: it ends in ".tmp-" followed by a suffix with no dot, as
// CreateTemp's random digits are. Every record name ends in a dotted
// extension (".stream", ".sum", ".bad", "manager.snapshot",
// "cluster.seqs"), so a record whose name embeds the marker mid-name —
// stream names may contain dots and dashes, e.g. "a.stream.tmp-1.stream"
// — never matches and is never swept.
func IsTemp(name string) bool {
	i := strings.LastIndex(name, tempMarker)
	return i >= 0 && !strings.Contains(name[i+len(tempMarker):], ".")
}
