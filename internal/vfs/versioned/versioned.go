// Package versioned implements the pre-image retention layer of the
// detect-then-recover pipeline: a wrapping vfs.Backend that, via the
// router's PreImager capability, retains a copy-on-write pre-image of every
// file a not-yet-cleared scoring group modifies or deletes. The paper's
// thesis is that early detection bounds loss to a handful of files; pre-
// image retention closes the remaining gap by making even those files
// recoverable once the verdict lands.
//
// Pre-images live out-of-band in the Store — not in the filesystem
// namespace — so a ransomware family that wipes shadow copies before
// encrypting (TeslaCrypt, CryptoWall; §V-B) cannot reach them: shadow
// copies are files the attacker's process can enumerate and delete through
// the filesystem API, while the Store is reachable only from the analysis
// engine's side of the filter boundary.
//
// Retention is first-capture-wins per (group, file): the bytes saved are
// the file's content before the group's first destructive touch, which is
// exactly the state rollback must restore regardless of how many times the
// file is rewritten afterwards. A byte budget bounds memory; when exceeded,
// whole-group evictions proceed FIFO by capture order. Groups exonerated by
// the engine (process closed clean, session idle-evicted) release their
// pre-images immediately, and groups the operator explicitly allows are
// exempted from capture entirely — so steady-state benign traffic costs
// transient retention only, and Monitor-exempt processes cost nothing.
package versioned

import (
	"sync"

	"cryptodrop/internal/vfs"
)

// PreImage is one retained file state: the content a file held before the
// suspect group's first destructive touch.
type PreImage struct {
	// ID is the stable router file ID the content belonged to.
	ID uint64
	// Path is the full router path at capture time — the recovery target
	// when the ID no longer exists (the attacker deleted or replaced it).
	Path string
	// Data is the retained content (a private copy).
	Data []byte
}

// Stats summarises a Store's retention state.
type Stats struct {
	// Groups is the number of scoring groups with live pre-images.
	Groups int
	// Files is the number of retained pre-images across all groups.
	Files int
	// Bytes is the retained content size.
	Bytes int64
	// Captured counts every pre-image ever taken.
	Captured int64
	// Released counts pre-images dropped by exoneration or exemption.
	Released int64
	// Evicted counts pre-images dropped by budget pressure.
	Evicted int64
}

// groupImages is one group's retention set, insertion-ordered for
// deterministic recovery.
type groupImages struct {
	byID  map[uint64]int // file ID -> index into list
	list  []PreImage
	bytes int64
}

// Store retains pre-images grouped by scoring group, within a byte budget.
// One Store serves every mount of a filesystem; all methods are safe for
// concurrent use.
type Store struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	groupOf func(pid int) int
	exempt  map[int]bool
	groups  map[int]*groupImages
	// order lists groups FIFO by first capture, the budget eviction order.
	order    []int
	captured int64
	released int64
	evicted  int64
}

// NewStore returns a Store retaining at most budget bytes of pre-image
// content (<= 0 means unbounded). Until SetGroupOf is called, the capturing
// process's PID is its own group.
func NewStore(budget int64) *Store {
	return &Store{
		budget: budget,
		exempt: make(map[int]bool),
		groups: make(map[int]*groupImages),
	}
}

// SetGroupOf installs the PID-to-scoring-group mapping, which must match
// the engine's FamilyOf so exoneration and recovery resolve the same groups
// capture does. Pass nil to revert to identity.
func (s *Store) SetGroupOf(fn func(pid int) int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.groupOf = fn
}

// Exempt permanently excludes a group from capture and drops anything
// already retained for it — the operator cleared this program (Monitor
// allow-listing), so rollback must never target it again.
func (s *Store) Exempt(group int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.exempt[group] = true
	s.dropLocked(group, &s.released)
}

// Release drops a group's retained pre-images without exempting it from
// future capture — the engine exonerated the group (closed clean or
// idle-evicted), but a future process in the same group starts suspect
// again.
func (s *Store) Release(group int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropLocked(group, &s.released)
}

// Take removes and returns a group's retained pre-images in capture order —
// the recovery coordinator's rollback set. The caller owns the result;
// taking twice returns nil.
func (s *Store) Take(group int) []PreImage {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.groups[group]
	if !ok {
		return nil
	}
	s.removeGroupLocked(group, g)
	return g.list
}

// Stats returns a snapshot of retention counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Groups:   len(s.groups),
		Bytes:    s.used,
		Captured: s.captured,
		Released: s.released,
		Evicted:  s.evicted,
	}
	for _, g := range s.groups {
		st.Files += len(g.list)
	}
	return st
}

// capture retains content for (group-of-pid, id) if not already retained
// and the group is not exempt. It copies data, which may alias backend
// storage.
func (s *Store) capture(pid int, id uint64, path string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	group := pid
	if s.groupOf != nil {
		group = s.groupOf(pid)
	}
	if s.exempt[group] {
		return
	}
	g, ok := s.groups[group]
	if !ok {
		g = &groupImages{byID: make(map[uint64]int)}
		s.groups[group] = g
		s.order = append(s.order, group)
	}
	if _, ok := g.byID[id]; ok {
		return
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	g.byID[id] = len(g.list)
	g.list = append(g.list, PreImage{ID: id, Path: path, Data: buf})
	g.bytes += int64(len(buf))
	s.used += int64(len(buf))
	s.captured++
	s.enforceBudgetLocked(group)
}

// enforceBudgetLocked evicts whole groups FIFO by first capture until the
// budget is met, sparing the group that just captured (evicting the active
// attacker's own pre-images would defeat recovery).
func (s *Store) enforceBudgetLocked(spare int) {
	if s.budget <= 0 {
		return
	}
	for s.used > s.budget {
		victim, ok := s.oldestGroupLocked(spare)
		if !ok {
			return
		}
		s.dropLocked(victim, &s.evicted)
	}
}

// oldestGroupLocked returns the FIFO-oldest live group other than spare.
func (s *Store) oldestGroupLocked(spare int) (int, bool) {
	for _, group := range s.order {
		if group == spare {
			continue
		}
		if _, ok := s.groups[group]; ok {
			return group, true
		}
	}
	return 0, false
}

// dropLocked removes a group's retention set, attributing the count to the
// given counter.
func (s *Store) dropLocked(group int, counter *int64) {
	g, ok := s.groups[group]
	if !ok {
		return
	}
	*counter += int64(len(g.list))
	s.removeGroupLocked(group, g)
}

// removeGroupLocked unlinks a group from the store's indexes.
func (s *Store) removeGroupLocked(group int, g *groupImages) {
	s.used -= g.bytes
	delete(s.groups, group)
	for i, o := range s.order {
		if o == group {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// Backend wraps an inner content backend with pre-image capture. It
// delegates every content operation unchanged and implements the router's
// PreImager capability: before a destructive mutation it reads the file's
// current content from the inner backend and offers it to the Store.
type Backend struct {
	inner vfs.Backend
	store *Store
}

// Wrap layers pre-image capture over inner, retaining into store. Install
// with FS.WrapMounts so every mount of a filesystem feeds one store.
func Wrap(inner vfs.Backend, store *Store) *Backend {
	return &Backend{inner: inner, store: store}
}

var (
	_ vfs.Backend   = (*Backend)(nil)
	_ vfs.PreImager = (*Backend)(nil)
	_ vfs.Cloner    = (*Backend)(nil)
	_ vfs.Wrapper   = (*Backend)(nil)
)

// Inner implements vfs.Wrapper: it returns the wrapped backend — the unwrap
// seam for monitor shutdown, and the storage vfs.FS.VisitRaw inspects.
func (b *Backend) Inner() vfs.Backend { return b.inner }

// Store returns the retention store this backend captures into.
func (b *Backend) Store() *Store { return b.store }

// PreImage implements vfs.PreImager: called by the router, under its lock,
// after the interceptor has passed a destructive operation and before the
// inner backend mutates content.
func (b *Backend) PreImage(id uint64, path string, pid int, kind vfs.OpKind) {
	data, _, err := b.inner.Read(id, 0, -1)
	if err != nil {
		return
	}
	b.store.capture(pid, id, path, data)
}

// Open implements vfs.Backend.
func (b *Backend) Open(id uint64, path string, create, truncate bool) error {
	return b.inner.Open(id, path, create, truncate)
}

// Read implements vfs.Backend.
func (b *Backend) Read(id uint64, off, n int64) ([]byte, int64, error) {
	return b.inner.Read(id, off, n)
}

// Write implements vfs.Backend.
func (b *Backend) Write(id uint64, off int64, data []byte) (int64, error) {
	return b.inner.Write(id, off, data)
}

// Close implements vfs.Backend.
func (b *Backend) Close(id uint64) error { return b.inner.Close(id) }

// Delete implements vfs.Backend.
func (b *Backend) Delete(id uint64) error { return b.inner.Delete(id) }

// Rename implements vfs.Backend.
func (b *Backend) Rename(id uint64, oldPath, newPath string) error {
	return b.inner.Rename(id, oldPath, newPath)
}

// Stat implements vfs.Backend.
func (b *Backend) Stat(id uint64) (int64, error) { return b.inner.Stat(id) }

// CloneBackend implements vfs.Cloner when the inner backend does: the clone
// is the plain inner clone, without capture — cloned filesystems are
// experiment copies, not monitored volumes.
func (b *Backend) CloneBackend() vfs.Backend {
	if c, ok := b.inner.(vfs.Cloner); ok {
		return c.CloneBackend()
	}
	return nil
}
