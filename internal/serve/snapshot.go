package serve

import "io"

// WriteSnapshot serializes every live framework's evaluation cache to w as
// JSON, in the spec.SnapshotVersion format the fleet dispatcher and
// workers share. Solves may keep running concurrently — the cache exports
// under its shard locks — so this is safe to call from a drain path while
// streams finish.
func (s *Server) WriteSnapshot(w io.Writer) error {
	return s.cache.WriteSnapshot(w)
}

// ReadSnapshot merges a snapshot written by WriteSnapshot into this server:
// each entry's spec is re-normalized and materialized through the regular
// framework cache (building frameworks as needed), then its evaluations
// are merged in. Individual entries that no longer normalize or restore are
// skipped — a snapshot is an optimization, not a source of truth; only a
// malformed envelope or a version mismatch is an error. It returns the
// number of cache entries adopted across all frameworks.
func (s *Server) ReadSnapshot(r io.Reader) (int, error) {
	return s.cache.ReadSnapshot(r)
}

// SaveSnapshotFile writes the snapshot to path atomically (temp file in the
// same directory, then rename), so a crash mid-write never leaves a
// truncated snapshot where the next boot would read it.
func (s *Server) SaveSnapshotFile(path string) error {
	return s.cache.SaveSnapshotFile(path)
}

// LoadSnapshotFile restores a snapshot from path, returning the number of
// cache entries adopted. A missing file is not an error — it is the normal
// first boot — and reports zero adoptions.
func (s *Server) LoadSnapshotFile(path string) (int, error) {
	return s.cache.LoadSnapshotFile(path)
}
