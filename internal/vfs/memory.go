package vfs

import "fmt"

// Memory is the in-memory content store — the backend behind vfs.New, and
// the re-implementation of the original monolithic filesystem's byte
// storage. Content is shared copy-on-write across CloneBackend, so cloning
// a corpus for a fresh experiment run stays cheap even for large trees.
type Memory struct {
	files map[uint64]*memFile
}

type memFile struct {
	data []byte
	// shared marks the data slice as aliased by a clone: copy before
	// mutating.
	shared bool
}

// NewMemory returns an empty in-memory backend.
func NewMemory() *Memory {
	return &Memory{files: make(map[uint64]*memFile)}
}

var _ Backend = (*Memory)(nil)
var _ Cloner = (*Memory)(nil)

// Open implements Backend.
func (m *Memory) Open(id uint64, path string, create, truncate bool) error {
	f, ok := m.files[id]
	if create {
		if ok {
			return fmt.Errorf("memory: file id %d: %w", id, ErrExist)
		}
		m.files[id] = &memFile{}
		return nil
	}
	if !ok {
		return fmt.Errorf("memory: file id %d: %w", id, ErrNotExist)
	}
	if truncate {
		f.data = nil
		f.shared = false
	}
	return nil
}

// Read implements Backend. The returned slice aliases the stored content.
func (m *Memory) Read(id uint64, off, n int64) ([]byte, int64, error) {
	f, ok := m.files[id]
	if !ok {
		return nil, 0, fmt.Errorf("memory: file id %d: %w", id, ErrNotExist)
	}
	size := int64(len(f.data))
	if off < 0 || off >= size {
		return nil, size, nil
	}
	end := size
	if n >= 0 && off+n < size {
		end = off + n
	}
	return f.data[off:end], size, nil
}

// Write implements Backend, honouring copy-on-write sharing.
func (m *Memory) Write(id uint64, off int64, data []byte) (int64, error) {
	f, ok := m.files[id]
	if !ok {
		return 0, fmt.Errorf("memory: file id %d: %w", id, ErrNotExist)
	}
	f.write(off, data)
	return int64(len(f.data)), nil
}

// write stores data at off, honouring copy-on-write sharing.
func (f *memFile) write(off int64, data []byte) {
	need := off + int64(len(data))
	if f.shared || need > int64(cap(f.data)) {
		nd := make([]byte, max64(need, int64(len(f.data))))
		copy(nd, f.data)
		f.data = nd
		f.shared = false
	} else if need > int64(len(f.data)) {
		f.data = f.data[:need]
	}
	copy(f.data[off:], data)
}

// Close implements Backend (no per-file resources to release).
func (m *Memory) Close(id uint64) error { return nil }

// Delete implements Backend.
func (m *Memory) Delete(id uint64) error {
	if _, ok := m.files[id]; !ok {
		return fmt.Errorf("memory: file id %d: %w", id, ErrNotExist)
	}
	delete(m.files, id)
	return nil
}

// Rename implements Backend (content is path-independent).
func (m *Memory) Rename(id uint64, oldPath, newPath string) error { return nil }

// Stat implements Backend.
func (m *Memory) Stat(id uint64) (int64, error) {
	f, ok := m.files[id]
	if !ok {
		return 0, fmt.Errorf("memory: file id %d: %w", id, ErrNotExist)
	}
	return int64(len(f.data)), nil
}

// CloneBackend implements Cloner: both sides share content slices until
// either writes. The clone's file records come from one slab allocation.
func (m *Memory) CloneBackend() Backend {
	nm := &Memory{files: make(map[uint64]*memFile, len(m.files))}
	slab := make([]memFile, len(m.files))
	i := 0
	for id, f := range m.files {
		f.shared = true
		slab[i] = memFile{data: f.data, shared: true}
		nm.files[id] = &slab[i]
		i++
	}
	return nm
}

// sameStorage reports whether a and b are the very same stored content:
// the same length over the same backing array. Memory never mutates a
// shared array in place (write copies first), so same storage implies the
// same bytes without comparing them; two empty contents are trivially the
// same.
func sameStorage(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
