// Package store is jettyd's crash-safe on-disk persistence layer: a
// content-addressed store for completed cell results, uploaded traces,
// and the journal of admitted-but-unfinished jobs (experiments and
// sweeps). It exists so a daemon restart — graceful or kill -9 — loses
// no completed simulation work: results persisted here act as an L3
// under the engine's in-memory LRU, traces reload into the trace
// registry, and journaled jobs are re-admitted and resumed on boot.
//
// Layout under the data directory:
//
//	MANIFEST                store-format version, {"version":1}
//	results/<key>.json      one completed engine result per cache key
//	traces/<digest>.jtrc    uploaded trace bytes, content-addressed
//	traces/<digest>.json    trace metadata (name, owning tenant)
//	jobs/<id>.json          journal entry for an unfinished job
//
// Write protocol (crash safety): every write goes to a temp file in the
// destination directory, is fsynced, closed, renamed over the final
// name, and the directory is fsynced. A crash at any point leaves
// either the old content or the new content at the final name — never a
// torn file — plus at worst an orphaned temp file, which Open sweeps.
// Reads defend in depth anyway: any entry that fails JSON validation is
// discarded individually (deleted and skipped), so one damaged entry
// never poisons recovery of its neighbours.
//
// A Store's methods are safe for concurrent use.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

const (
	manifestName    = "MANIFEST"
	manifestVersion = 1

	resultsDir = "results"
	tracesDir  = "traces"
	jobsDir    = "jobs"

	resultExt    = ".json"
	traceDataExt = ".jtrc"
	traceMetaExt = ".json"
	jobExt       = ".json"

	tmpPrefix = ".tmp-"
)

// manifest is the versioned store descriptor. Open refuses directories
// written by a future store format rather than misreading them; a
// missing or corrupt manifest is rewritten (it carries no state beyond
// the version).
type manifest struct {
	Version int `json:"version"`
}

// TraceMeta is the sidecar metadata persisted next to a trace's bytes:
// what the registry needs to re-admit the trace on boot beyond the
// content itself.
type TraceMeta struct {
	Name   string `json:"name"`
	Tenant string `json:"tenant,omitempty"`
}

// TraceEntry is one persisted trace as returned by Traces.
type TraceEntry struct {
	Digest string
	Meta   TraceMeta
	Data   []byte
}

// Stats is a point-in-time snapshot of the store for /metrics.
type Stats struct {
	Results     int    // result entries on disk
	Traces      int    // trace entries on disk
	PendingJobs int    // journaled jobs: those the registry holds
	Hits        uint64 // GetResult calls served from disk
	Writes      uint64 // successful atomic writes (all kinds)
	Errors      uint64 // failed writes/deletes and discarded corrupt entries
}

// Store is a handle on one data directory.
type Store struct {
	dir string

	mu      sync.Mutex
	results map[string]struct{} // result keys known on disk
	traces  map[string]struct{} // trace digests known on disk
	jobs    map[string]struct{} // journaled job ids
	hits    uint64
	writes  uint64
	errors  uint64
}

// Open creates (or reopens) the store rooted at dir. It creates the
// directory tree, validates the manifest version, sweeps temp files
// left by a crash mid-write, and indexes the surviving entries.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	for _, d := range []string{dir, filepath.Join(dir, resultsDir), filepath.Join(dir, tracesDir), filepath.Join(dir, jobsDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{
		dir:     dir,
		results: make(map[string]struct{}),
		traces:  make(map[string]struct{}),
		jobs:    make(map[string]struct{}),
	}
	if err := s.checkManifest(); err != nil {
		return nil, err
	}
	s.sweepTemp()
	s.index()
	return s, nil
}

// Dir reports the directory the store is rooted at.
func (s *Store) Dir() string { return s.dir }

// checkManifest enforces the format version. A readable manifest from a
// future version is a hard error (the directory belongs to a newer
// daemon); a missing or torn manifest is rewritten in place — it holds
// only the version, so recovery is just "stamp it again".
func (s *Store) checkManifest() error {
	path := filepath.Join(s.dir, manifestName)
	data, err := os.ReadFile(path)
	if err == nil && json.Valid(data) {
		var m manifest
		if json.Unmarshal(data, &m) == nil && m.Version > 0 {
			if m.Version > manifestVersion {
				return fmt.Errorf("store: %s version %d is newer than supported %d", path, m.Version, manifestVersion)
			}
			return nil
		}
	}
	fresh, _ := json.Marshal(manifest{Version: manifestVersion})
	if err := s.writeAtomic(path, fresh); err != nil {
		return fmt.Errorf("store: writing manifest: %w", err)
	}
	return nil
}

// sweepTemp removes temp files orphaned by a crash between create and
// rename. They are invisible to reads either way; this just reclaims
// the space.
func (s *Store) sweepTemp() {
	for _, d := range []string{s.dir, filepath.Join(s.dir, resultsDir), filepath.Join(s.dir, tracesDir), filepath.Join(s.dir, jobsDir)} {
		ents, err := os.ReadDir(d)
		if err != nil {
			continue
		}
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), tmpPrefix) {
				_ = os.Remove(filepath.Join(d, e.Name()))
			}
		}
	}
}

// index builds the in-memory key sets from the directory listing, so
// GetResult misses don't hit the filesystem and Stats is a map read.
func (s *Store) index() {
	if ents, err := os.ReadDir(filepath.Join(s.dir, resultsDir)); err == nil {
		for _, e := range ents {
			if key, ok := strings.CutSuffix(e.Name(), resultExt); ok && key != "" {
				s.results[key] = struct{}{}
			}
		}
	}
	if ents, err := os.ReadDir(filepath.Join(s.dir, tracesDir)); err == nil {
		for _, e := range ents {
			if digest, ok := strings.CutSuffix(e.Name(), traceDataExt); ok && digest != "" {
				s.traces[digest] = struct{}{}
			}
		}
	}
	if ents, err := os.ReadDir(filepath.Join(s.dir, jobsDir)); err == nil {
		for _, e := range ents {
			if id, ok := strings.CutSuffix(e.Name(), jobExt); ok && id != "" {
				s.jobs[id] = struct{}{}
			}
		}
	}
}

// validName rejects names that would escape the store's directories or
// collide with its temp files. Engine keys are SHA-256 hex (optionally
// with a "#tl<n>" sampling suffix), digests are hex, job ids are
// "exp-NNNNNN"/"swp-NNNNNN" — all pass; anything pathological does not.
func validName(name string) bool {
	if name == "" || len(name) > 255-len(resultExt) {
		return false
	}
	if strings.ContainsAny(name, "/\x00") || strings.HasPrefix(name, ".") {
		return false
	}
	return true
}

// writeAtomic writes data to path via the temp+fsync+rename+dir-fsync
// protocol described in the package comment.
func (s *Store) writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename into it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// put is the shared write path: atomic write plus index/counter upkeep.
func (s *Store) put(path, name string, data []byte, set map[string]struct{}) error {
	if !validName(name) {
		s.countError()
		return fmt.Errorf("store: invalid name %q", name)
	}
	if err := s.writeAtomic(path, data); err != nil {
		s.countError()
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	set[name] = struct{}{}
	s.writes++
	s.mu.Unlock()
	return nil
}

// remove deletes an entry's file(s) and forgets it; missing files are
// not an error (delete is idempotent).
func (s *Store) remove(name string, set map[string]struct{}, paths ...string) error {
	var firstErr error
	for _, p := range paths {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) && firstErr == nil {
			firstErr = err
		}
	}
	s.mu.Lock()
	delete(set, name)
	s.mu.Unlock()
	if firstErr != nil {
		s.countError()
		return fmt.Errorf("store: %w", firstErr)
	}
	return nil
}

func (s *Store) countError() {
	s.mu.Lock()
	s.errors++
	s.mu.Unlock()
}

// PutResult persists one completed result under its engine cache key.
// data must be the result's JSON encoding (GetResult validates it on
// the way back out).
func (s *Store) PutResult(key string, data []byte) error {
	return s.put(filepath.Join(s.dir, resultsDir, key+resultExt), key, data, s.results)
}

// GetResult returns the persisted result for key, or ok=false on a
// miss. An entry that exists but fails JSON validation — a torn write
// that somehow survived the atomic protocol, or outside corruption — is
// deleted and reported as a miss, so the engine recomputes and
// overwrites it.
func (s *Store) GetResult(key string) ([]byte, bool) {
	if !validName(key) {
		return nil, false
	}
	s.mu.Lock()
	_, known := s.results[key]
	s.mu.Unlock()
	if !known {
		return nil, false
	}
	path := filepath.Join(s.dir, resultsDir, key+resultExt)
	data, err := os.ReadFile(path)
	if err != nil || !json.Valid(data) {
		_ = s.remove(key, s.results, path)
		s.countError()
		return nil, false
	}
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	return data, true
}

// DeleteResult removes one persisted result (used when a decoded result
// turns out stale or unreadable at a higher layer).
func (s *Store) DeleteResult(key string) error {
	if !validName(key) {
		return fmt.Errorf("store: invalid name %q", key)
	}
	return s.remove(key, s.results, filepath.Join(s.dir, resultsDir, key+resultExt))
}

// PutTrace persists an uploaded trace: its raw bytes under the digest,
// and a metadata sidecar with the registry name and owning tenant. The
// meta file is written first so a crash between the two leaves a
// harmless orphan sidecar rather than a trace with no name.
func (s *Store) PutTrace(digest string, data []byte, meta TraceMeta) error {
	if !validName(digest) {
		s.countError()
		return fmt.Errorf("store: invalid name %q", digest)
	}
	mdata, err := json.Marshal(meta)
	if err != nil {
		s.countError()
		return fmt.Errorf("store: %w", err)
	}
	if err := s.writeAtomic(filepath.Join(s.dir, tracesDir, digest+traceMetaExt), mdata); err != nil {
		s.countError()
		return fmt.Errorf("store: %w", err)
	}
	return s.put(filepath.Join(s.dir, tracesDir, digest+traceDataExt), digest, data, s.traces)
}

// DeleteTrace removes a trace and its metadata sidecar.
func (s *Store) DeleteTrace(digest string) error {
	if !validName(digest) {
		return fmt.Errorf("store: invalid name %q", digest)
	}
	return s.remove(digest, s.traces,
		filepath.Join(s.dir, tracesDir, digest+traceDataExt),
		filepath.Join(s.dir, tracesDir, digest+traceMetaExt))
}

// Traces returns every persisted trace in digest order. Entries whose
// metadata sidecar is missing or torn are discarded individually; the
// caller re-validates the trace bytes themselves (the JTRC framing has
// its own integrity checks) and should DeleteTrace anything unreadable.
func (s *Store) Traces() []TraceEntry {
	s.mu.Lock()
	digests := make([]string, 0, len(s.traces))
	for d := range s.traces {
		digests = append(digests, d)
	}
	s.mu.Unlock()
	sort.Strings(digests)

	var out []TraceEntry
	for _, digest := range digests {
		dataPath := filepath.Join(s.dir, tracesDir, digest+traceDataExt)
		metaPath := filepath.Join(s.dir, tracesDir, digest+traceMetaExt)
		data, derr := os.ReadFile(dataPath)
		mdata, merr := os.ReadFile(metaPath)
		var meta TraceMeta
		if derr != nil || merr != nil || !json.Valid(mdata) || json.Unmarshal(mdata, &meta) != nil {
			_ = s.DeleteTrace(digest)
			s.countError()
			continue
		}
		out = append(out, TraceEntry{Digest: digest, Meta: meta, Data: data})
	}
	return out
}

// PutJob journals one admitted job (experiment or sweep) under its id.
// The entry lives as long as the job stays in the daemon's registry; a
// daemon that boots with entries present re-admits them, resuming the
// unfinished ones.
func (s *Store) PutJob(id string, data []byte) error {
	return s.put(filepath.Join(s.dir, jobsDir, id+jobExt), id, data, s.jobs)
}

// DeleteJob removes a journal entry (its job left the registry).
func (s *Store) DeleteJob(id string) error {
	if !validName(id) {
		return fmt.Errorf("store: invalid name %q", id)
	}
	return s.remove(id, s.jobs, filepath.Join(s.dir, jobsDir, id+jobExt))
}

// Jobs returns the surviving journal entries keyed by id. Entries that
// fail JSON validation are deleted and skipped — one torn journal entry
// costs that job, not the whole recovery.
func (s *Store) Jobs() map[string][]byte {
	s.mu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	s.mu.Unlock()

	out := make(map[string][]byte, len(ids))
	for _, id := range ids {
		path := filepath.Join(s.dir, jobsDir, id+jobExt)
		data, err := os.ReadFile(path)
		if err != nil || !json.Valid(data) {
			_ = s.DeleteJob(id)
			s.countError()
			continue
		}
		out[id] = data
	}
	return out
}

// Stats snapshots the store's counters for /metrics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Results:     len(s.results),
		Traces:      len(s.traces),
		PendingJobs: len(s.jobs),
		Hits:        s.hits,
		Writes:      s.writes,
		Errors:      s.errors,
	}
}
