package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// FileName is the ledger's JSONL file inside the ledger directory;
// RunsDirName holds the per-run artifact directories.
const (
	FileName    = "ledger.jsonl"
	RunsDirName = "runs"
)

// EnvDir is the environment variable naming the ledger directory when no
// -ledger flag is given; DefaultDir is the fallback when neither is set.
const (
	EnvDir     = "ODRL_LEDGER"
	DefaultDir = ".odrl/ledger"
)

// ResolveDir picks the ledger directory: explicit flag value, then
// $ODRL_LEDGER, then DefaultDir. An empty return means the flag was empty
// and so were the fallbacks (callers treat that as disabled).
func ResolveDir(flagDir string) string {
	if flagDir != "" {
		return flagDir
	}
	if env := os.Getenv(EnvDir); env != "" {
		return env
	}
	return DefaultDir
}

// Ledger is one ledger directory opened for appending and querying.
// Appends are a single O_APPEND write per record, so concurrent writers —
// parallel CI jobs, a sweep fan-out — interleave whole lines without
// locking (POSIX guarantees atomicity for single writes well above our
// record sizes; the race-ledger hammer in CI exercises this).
type Ledger struct {
	dir string
}

// Open ensures the ledger directory exists and returns a handle.
func Open(dir string) (*Ledger, error) {
	if dir == "" {
		return nil, fmt.Errorf("ledger: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, RunsDirName), 0o755); err != nil {
		return nil, fmt.Errorf("ledger: creating %s: %w", dir, err)
	}
	return &Ledger{dir: dir}, nil
}

// Dir returns the ledger directory.
func (l *Ledger) Dir() string { return l.dir }

// Path returns the JSONL file path.
func (l *Ledger) Path() string { return filepath.Join(l.dir, FileName) }

// RunDir returns the artifact directory for a run ID, creating it.
func (l *Ledger) RunDir(id string) (string, error) {
	d := filepath.Join(l.dir, RunsDirName, id)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return "", fmt.Errorf("ledger: creating run dir: %w", err)
	}
	return d, nil
}

// Append validates, content-addresses and appends one record as a single
// JSONL line. It is safe to call from multiple processes on the same
// ledger file.
func (l *Ledger) Append(r Record) error {
	line, err := r.MarshalLine()
	if err != nil {
		return err
	}
	f, err := os.OpenFile(l.Path(), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: opening %s: %w", l.Path(), err)
	}
	defer f.Close()
	// One Write call for the whole line+newline keeps the append atomic.
	if _, err := f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("ledger: appending record %s: %w", r.ID, err)
	}
	return nil
}

// WriteArtifact stores bytes under the run's artifact directory and
// returns the Artifact pointer (name, size, content hash) to embed in the
// record. Name may contain subdirectories.
func (l *Ledger) WriteArtifact(runID, name string, data []byte) (Artifact, error) {
	dir, err := l.RunDir(runID)
	if err != nil {
		return Artifact{}, err
	}
	path := filepath.Join(dir, filepath.FromSlash(name))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return Artifact{}, fmt.Errorf("ledger: artifact dir for %s: %w", name, err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return Artifact{}, fmt.Errorf("ledger: writing artifact %s: %w", name, err)
	}
	sum := sha256.Sum256(data)
	return Artifact{Name: name, Bytes: int64(len(data)), SHA256: hex.EncodeToString(sum[:])}, nil
}

// ReadArtifact reads one of record id's artifacts from the ledger in dir
// and checks it against the record's pin: a name that leaves the run
// directory, a missing file, a size mismatch or a SHA-256 mismatch is an
// error naming the artifact. It creates nothing.
func ReadArtifact(dir, id string, a Artifact) ([]byte, error) {
	name := filepath.FromSlash(a.Name)
	if !filepath.IsLocal(name) {
		return nil, fmt.Errorf("ledger: record %s: artifact %s is outside the run directory", id, a.Name)
	}
	data, err := os.ReadFile(filepath.Join(dir, RunsDirName, id, name))
	if err != nil {
		return nil, fmt.Errorf("ledger: record %s: artifact %s: %w", id, a.Name, err)
	}
	if int64(len(data)) != a.Bytes {
		return nil, fmt.Errorf("ledger: record %s: artifact %s is %d bytes, the record pins %d", id, a.Name, len(data), a.Bytes)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != a.SHA256 {
		return nil, fmt.Errorf("ledger: record %s: artifact %s does not match its pinned SHA-256", id, a.Name)
	}
	return data, nil
}

// idSeq disambiguates IDs minted within one process in the same
// nanosecond (e.g. a test loop).
var idSeq atomic.Uint64

// NewID mints a sortable, collision-resistant run ID: a UTC timestamp
// prefix (so `sort` on IDs is chronological) plus a short hash of
// host/pid/time/sequence.
func NewID(start time.Time) string {
	host, _ := os.Hostname()
	seq := idSeq.Add(1)
	raw := fmt.Sprintf("%s|%d|%d|%d", host, os.Getpid(), start.UnixNano(), seq)
	sum := sha256.Sum256([]byte(raw))
	return start.UTC().Format("20060102T150405") + "-" + hex.EncodeToString(sum[:])[:10]
}
