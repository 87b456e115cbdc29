package campaign

import (
	"io"
	"os"
)

// CheckpointFile is the slice of *os.File the checkpoint writer needs.
// The write contract is Write* → Sync → Close: Sync must push the bytes
// to stable storage (or report that it could not), so a crash after the
// subsequent rename can never expose a torn or empty snapshot.
type CheckpointFile interface {
	io.Writer
	Name() string
	Sync() error
	Close() error
}

// CheckpointFS abstracts the filesystem under checkpoint I/O. The
// production implementation is the real OS filesystem; the chaos tests
// substitute one (chaosFS in chaos_test.go) that injects torn writes,
// silent bit corruption, and rename failures on a seeded schedule, which
// is how the recovery paths (CRC verification, last-good fallback, save
// retry) are exercised.
type CheckpointFS interface {
	CreateTemp(dir, pattern string) (CheckpointFile, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadFile(name string) ([]byte, error)
	// SyncDir flushes the directory entry after a rename where the
	// platform supports it; implementations return nil where it does not.
	SyncDir(dir string) error
}

// WALFile is the handle the write-ahead log appends through. Append
// ordering is the caller's (the dispatcher serializes appends under its
// mutex); Sync is the group-commit point that makes everything appended
// so far durable.
type WALFile interface {
	io.Writer
	Sync() error
	Close() error
}

// WALFS extends CheckpointFS with the append surface the write-ahead
// log needs. The dispatcher type-asserts its CheckpointFS to WALFS and
// falls back to the real filesystem, so the chaos tests' filesystem,
// which implements OpenAppend, gets its partial-append faults aimed at
// the WAL while checkpoint I/O keeps flowing through the same injector.
type WALFS interface {
	CheckpointFS
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (WALFile, error)
}

// walFSFor picks the append-capable filesystem matching fsys: fsys
// itself when it implements WALFS, the real filesystem otherwise.
func walFSFor(fsys CheckpointFS) WALFS {
	if wfs, ok := fsys.(WALFS); ok {
		return wfs
	}
	return osCheckpointFS{}
}

// osCheckpointFS is the production CheckpointFS: the real filesystem.
type osCheckpointFS struct{}

func (osCheckpointFS) CreateTemp(dir, pattern string) (CheckpointFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osCheckpointFS) OpenAppend(name string) (WALFile, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
}

func (osCheckpointFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osCheckpointFS) Remove(name string) error             { return os.Remove(name) }
func (osCheckpointFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// SyncDir fsyncs the directory so the rename itself is durable. Not
// every platform or filesystem supports fsync on a directory handle, so
// failures are swallowed: the data file's own fsync already happened,
// and a lost directory entry only costs recent progress, never
// integrity.
func (osCheckpointFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
