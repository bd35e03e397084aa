package vfs

import (
	"bytes"
	"path"
	"testing"
)

// visitBase builds a small in-memory tree for VisitRaw tests.
func visitBase(t *testing.T) *FS {
	t.Helper()
	fs := New()
	files := map[string]string{
		"/docs/a.txt": "alpha",
		"/docs/b.txt": "bravo",
		"/docs/c.txt": "charlie",
		"/docs/empty": "",
		"/other/d":    "delta",
	}
	for p, content := range files {
		if err := fs.MkdirAll(path.Dir(p)); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(1, p, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// visitShared runs VisitRaw and returns each visited ID's Shared bit,
// checking that the visited content is what ReadFileRawByID returns.
func visitShared(t *testing.T, fs, src *FS) map[uint64]bool {
	t.Helper()
	got := make(map[uint64]bool)
	contents := make(map[uint64][]byte)
	err := fs.VisitRaw(src, func(f RawFile) {
		if _, dup := got[f.ID]; dup {
			t.Errorf("file id %d visited twice", f.ID)
		}
		got[f.ID] = f.Shared
		contents[f.ID] = append([]byte(nil), f.Content...)
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, c := range contents {
		want, err := fs.ReadFileRawByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c, want) {
			t.Errorf("file id %d visited content %q, want %q", id, c, want)
		}
	}
	return got
}

func idOf(t *testing.T, fs *FS, p string) uint64 {
	t.Helper()
	info, err := fs.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	return info.FileID
}

// wantShared checks the visit's Shared bits: every file in changed is
// unshared, every other file shared.
func wantShared(t *testing.T, got map[uint64]bool, fs *FS, changed ...uint64) {
	t.Helper()
	if n := len(fs.ids); len(got) != n {
		t.Fatalf("visited %d files, want %d", len(got), n)
	}
	isChanged := make(map[uint64]bool)
	for _, id := range changed {
		isChanged[id] = true
	}
	for id, shared := range got {
		if shared == isChanged[id] {
			t.Errorf("file id %d: Shared = %v, want %v", id, shared, !isChanged[id])
		}
	}
}

// TestVisitRawSharing pins VisitRaw's storage-identity verdicts: an
// untouched clone shares every file with its source, and each kind of
// content mutation unshares exactly the file it touched.
func TestVisitRawSharing(t *testing.T) {
	base := visitBase(t)

	t.Run("untouched", func(t *testing.T) {
		clone := base.Clone()
		wantShared(t, visitShared(t, clone, base), clone)
		// A filesystem trivially shares its own storage.
		wantShared(t, visitShared(t, base, base), base)
	})

	mutations := []struct {
		name   string
		mutate func(t *testing.T, fs *FS) uint64 // returns the changed file's ID
	}{
		{"write", func(t *testing.T, fs *FS) uint64 {
			h, err := fs.Open(1, "/docs/a.txt", ReadWrite)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Write([]byte("ALPHA")); err != nil {
				t.Fatal(err)
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			return idOf(t, fs, "/docs/a.txt")
		}},
		{"identical bytes", func(t *testing.T, fs *FS) uint64 {
			h, err := fs.Open(1, "/docs/a.txt", ReadWrite)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Write([]byte("alpha")); err != nil {
				t.Fatal(err)
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			return idOf(t, fs, "/docs/a.txt")
		}},
		{"truncating open", func(t *testing.T, fs *FS) uint64 {
			h, err := fs.Open(1, "/docs/b.txt", WriteOnly|Truncate)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			return idOf(t, fs, "/docs/b.txt")
		}},
		{"append past capacity", func(t *testing.T, fs *FS) uint64 {
			h, err := fs.Open(1, "/docs/c.txt", WriteOnly|Append)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Write(bytes.Repeat([]byte("x"), 4096)); err != nil {
				t.Fatal(err)
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			return idOf(t, fs, "/docs/c.txt")
		}},
		{"restore", func(t *testing.T, fs *FS) uint64 {
			id := idOf(t, fs, "/other/d")
			if err := fs.RestoreFileRawByID(id, []byte("delta")); err != nil {
				t.Fatal(err)
			}
			return id
		}},
		{"delete and recreate", func(t *testing.T, fs *FS) uint64 {
			if err := fs.Delete(1, "/docs/a.txt"); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile(1, "/docs/a.txt", []byte("alpha")); err != nil {
				t.Fatal(err)
			}
			return idOf(t, fs, "/docs/a.txt")
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			clone := base.Clone()
			changed := m.mutate(t, clone)
			wantShared(t, visitShared(t, clone, base), clone, changed)
			// The source is unaffected by the clone's mutation.
			wantShared(t, visitShared(t, base, base), base)
		})
	}

	t.Run("clone of clone", func(t *testing.T) {
		c1 := base.Clone()
		if err := c1.WriteFile(1, "/docs/a.txt", []byte("changed in c1")); err != nil {
			t.Fatal(err)
		}
		a := idOf(t, c1, "/docs/a.txt")
		c2 := c1.Clone()
		// The direct source shares everything, the grandparent not a.
		wantShared(t, visitShared(t, c2, c1), c2)
		wantShared(t, visitShared(t, c2, base), c2, a)
		if err := c2.WriteFile(1, "/docs/b.txt", []byte("changed in c2")); err != nil {
			t.Fatal(err)
		}
		b := idOf(t, c2, "/docs/b.txt")
		wantShared(t, visitShared(t, c2, c1), c2, b)
		wantShared(t, visitShared(t, c2, base), c2, a, b)
		// c1 is untouched by its own clone's write.
		wantShared(t, visitShared(t, c1, base), c1, a)
	})

	t.Run("wrapped mount", func(t *testing.T) {
		clone := base.Clone()
		clone.WrapMounts(func(_ string, b Backend) Backend { return passthrough{b} })
		wantShared(t, visitShared(t, clone, base), clone)
		if err := clone.WriteFile(1, "/docs/a.txt", []byte("wrapped write")); err != nil {
			t.Fatal(err)
		}
		wantShared(t, visitShared(t, clone, base), clone, idOf(t, clone, "/docs/a.txt"))
	})

	t.Run("opaque backend", func(t *testing.T) {
		// A backend VisitRaw cannot look through is never shared.
		clone := base.Clone()
		clone.WrapMounts(func(_ string, b Backend) Backend { return opaque{b} })
		all := make([]uint64, 0, len(clone.ids))
		for id := range clone.ids {
			all = append(all, id)
		}
		wantShared(t, visitShared(t, clone, base), clone, all...)
	})
}

// TestVisitRawLocalMountAlwaysChanged pins the conservative fallback: a
// Local mount is materialised on clone, so VisitRaw cannot decide sharing
// and reports every file on it as changed, while in-memory mounts of the
// same filesystem still share.
func TestVisitRawLocalMountAlwaysChanged(t *testing.T) {
	fs := New()
	if err := fs.Mount("/docs", NewLocal(t.TempDir())); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(1, "/docs/a.txt", []byte("on disk")); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/mem"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(1, "/mem/m.txt", []byte("in memory")); err != nil {
		t.Fatal(err)
	}
	local := idOf(t, fs, "/docs/a.txt")
	clone := fs.Clone()
	wantShared(t, visitShared(t, clone, fs), clone, local)
	wantShared(t, visitShared(t, fs, fs), fs, local)
}

// passthrough is a transparent Wrapper, as the versioned extension is.
type passthrough struct{ Backend }

func (p passthrough) Inner() Backend { return p.Backend }

// opaque wraps a backend without exposing it.
type opaque struct{ Backend }

// TestVisitRawConcurrentPairs visits two filesystems against each other in
// both directions while both take writes: the pair lock order must not
// deadlock, and the visit must not race (run under -race in CI).
func TestVisitRawConcurrentPairs(t *testing.T) {
	a := visitBase(t)
	b := a.Clone()
	done := make(chan struct{})
	for _, pair := range [][2]*FS{{a, b}, {b, a}} {
		pair := pair
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				if err := pair[0].VisitRaw(pair[1], func(RawFile) {}); err != nil {
					t.Error(err)
					return
				}
				if err := pair[0].WriteFile(1, "/docs/a.txt", []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	<-done
	<-done
}
