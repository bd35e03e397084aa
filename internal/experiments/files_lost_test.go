package experiments

import (
	"crypto/sha256"
	"path"
	"sort"
	"testing"

	"cryptodrop/internal/corpus"
	"cryptodrop/internal/vfs"
)

// fullHashLost is the reference files-lost count: copy every file out of
// fs, hash it, and count manifest entries whose content survives nowhere —
// the paper's SHA-256 verification done literally (§V-A). Runner's
// countFilesLost must agree with it exactly.
func fullHashLost(fs *vfs.FS, m *corpus.Manifest) int {
	surviving := make(map[[32]byte]bool, len(m.Entries))
	_ = fs.Walk("/", func(info vfs.FileInfo) error {
		if info.IsDir {
			return nil
		}
		if content, err := fs.ReadFileRaw(info.Path); err == nil {
			surviving[sha256.Sum256(content)] = true
		}
		return nil
	})
	lost := 0
	for _, e := range m.Entries {
		if !surviving[e.SHA256] {
			lost++
		}
	}
	return lost
}

// handBuiltRunner returns a runner over a six-file corpus on fs, with two
// files of identical content and one empty file.
func handBuiltRunner(t *testing.T, fs *vfs.FS) *Runner {
	t.Helper()
	files := map[string]string{
		"/u/docs/a.txt": "alpha original",
		"/u/docs/b.txt": "bravo original",
		"/u/docs/c.txt": "charlie original",
		"/u/docs/dup1":  "duplicated content",
		"/u/docs/dup2":  "duplicated content",
		"/u/docs/empty": "",
	}
	m := &corpus.Manifest{Root: "/u", DirCount: 2}
	for p, content := range files {
		if err := fs.MkdirAll(path.Dir(p)); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(0, p, []byte(content)); err != nil {
			t.Fatal(err)
		}
		m.Entries = append(m.Entries, corpus.Entry{Path: p, Size: len(content), SHA256: sha256.Sum256([]byte(content))})
	}
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].Path < m.Entries[j].Path })
	r, err := newRunnerOn(fs, m)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFilesLostMatchesFullHash pins the storage-identity shortcut in
// countFilesLost to the full walk-copy-hash count: over the reduced roster
// with recovery off and on, and over hand-built edge cases on an in-memory
// base (copy-on-write sharing decides) and a Local base (materialised on
// clone, so every file is hashed).
func TestFilesLostMatchesFullHash(t *testing.T) {
	for _, recovery := range []bool{false, true} {
		name := "roster/recovery-off"
		if recovery {
			name = "roster/recovery-on"
		}
		t.Run(name, func(t *testing.T) {
			r, err := NewRunner(testSpec)
			if err != nil {
				t.Fatal(err)
			}
			if recovery {
				r.EnableRecovery()
			}
			total := 0
			for _, s := range reducedRoster(t) {
				out, fs, err := r.runSample(s)
				if err != nil {
					t.Fatal(err)
				}
				if want := fullHashLost(fs, r.Manifest()); out.FilesLost != want {
					t.Errorf("%s: FilesLost = %d, full hash = %d", s.ID, out.FilesLost, want)
				}
				total += out.FilesLost
			}
			if !recovery && total == 0 {
				t.Fatal("no sample lost a file: the comparison exercised nothing")
			}
		})
	}

	write := func(t *testing.T, fs *vfs.FS, p, content string) {
		t.Helper()
		if err := fs.WriteFile(1, p, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	del := func(t *testing.T, fs *vfs.FS, p string) {
		t.Helper()
		if err := fs.Delete(1, p); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		mutate func(t *testing.T, fs *vfs.FS)
		lost   int
	}{
		{"untouched", func(t *testing.T, fs *vfs.FS) {}, 0},
		{"overwrite with identical bytes", func(t *testing.T, fs *vfs.FS) {
			h, err := fs.Open(1, "/u/docs/a.txt", vfs.ReadWrite)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Write([]byte("alpha original")); err != nil {
				t.Fatal(err)
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"truncate and rewrite original", func(t *testing.T, fs *vfs.FS) {
			write(t, fs, "/u/docs/a.txt", "alpha original")
		}, 0},
		{"encrypt in place", func(t *testing.T, fs *vfs.FS) {
			write(t, fs, "/u/docs/a.txt", "\x8f\x01ciphertext")
		}, 1},
		{"truncate only", func(t *testing.T, fs *vfs.FS) {
			h, err := fs.Open(1, "/u/docs/b.txt", vfs.WriteOnly|vfs.Truncate)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"rename over", func(t *testing.T, fs *vfs.FS) {
			if err := fs.Rename(1, "/u/docs/a.txt", "/u/docs/b.txt"); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"copy then delete", func(t *testing.T, fs *vfs.FS) {
			if err := fs.MkdirAll("/tmp"); err != nil {
				t.Fatal(err)
			}
			write(t, fs, "/tmp/parked", "charlie original")
			del(t, fs, "/u/docs/c.txt")
		}, 0},
		{"delete one duplicate", func(t *testing.T, fs *vfs.FS) {
			del(t, fs, "/u/docs/dup1")
		}, 0},
		{"delete both duplicates", func(t *testing.T, fs *vfs.FS) {
			del(t, fs, "/u/docs/dup1")
			del(t, fs, "/u/docs/dup2")
		}, 2},
		{"restore recreates deleted file", func(t *testing.T, fs *vfs.FS) {
			del(t, fs, "/u/docs/a.txt")
			if err := fs.RestoreFileRaw("/u/docs/a.txt", []byte("alpha original")); err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"restore recreates with other content", func(t *testing.T, fs *vfs.FS) {
			del(t, fs, "/u/docs/a.txt")
			if err := fs.RestoreFileRaw("/u/docs/a.txt", []byte("not the original")); err != nil {
				t.Fatal(err)
			}
		}, 1},
	}
	bases := []struct {
		name string
		fs   func(t *testing.T) *vfs.FS
	}{
		{"memory", func(t *testing.T) *vfs.FS { return vfs.New() }},
		{"local", func(t *testing.T) *vfs.FS { return vfs.NewWith(vfs.NewLocal(t.TempDir())) }},
	}
	for _, b := range bases {
		r := handBuiltRunner(t, b.fs(t))
		for _, c := range cases {
			t.Run(b.name+"/"+c.name, func(t *testing.T) {
				fs := r.CloneFS()
				c.mutate(t, fs)
				got, err := r.countFilesLost(fs)
				if err != nil {
					t.Fatal(err)
				}
				if want := fullHashLost(fs, r.Manifest()); got != want || got != c.lost {
					t.Fatalf("countFilesLost = %d, full hash = %d, want %d", got, want, c.lost)
				}
			})
		}
	}
}
