package main

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"math/rand"
	"sort"

	"cryptodrop"
	"cryptodrop/internal/experiments"
	"cryptodrop/internal/host"
)

// Session shape of the synthesized ingest traffic.
const (
	// batchOps is the ops per Submit batch (one wire frame).
	batchOps = 8
	// ransomEvery makes one session in this many ransomware.
	ransomEvery = 8
	// benignFiles and benignEdits shape a benign session: each of its files
	// gets this many small in-place edits.
	benignFiles = 4
	benignEdits = 4
	// ransomFiles is how many files a ransomware session attacks.
	ransomFiles = 24
	// benignPID and ransomPID are the producers' process IDs; every session
	// is its own engine, so they need not differ across sessions.
	benignPID = 2000
	ransomPID = 3000
	// createdIDBase numbers files a ransomware session creates.
	createdIDBase = 1 << 40
)

// poolFile is one corpus file the traffic draws its content from.
type poolFile struct {
	path    string
	id      uint64
	content []byte
}

// poolFromRunner reads up to limit writable files of the runner's corpus,
// spread evenly over the manifest. File IDs are the producer's own
// numbering.
func poolFromRunner(r *experiments.Runner, limit int) ([]poolFile, error) {
	fs := r.CloneFS()
	entries := r.Manifest().Entries
	stride := max(1, len(entries)/limit)
	var pool []poolFile
	for i := 0; i < len(entries) && len(pool) < limit; i += stride {
		e := entries[i]
		if e.ReadOnly {
			continue
		}
		content, err := fs.ReadFileRaw(e.Path)
		if err != nil {
			return nil, fmt.Errorf("read corpus file %s: %w", e.Path, err)
		}
		pool = append(pool, poolFile{path: e.Path, id: uint64(len(pool) + 1), content: content})
	}
	if len(pool)*ransomShare/poolCycle < ransomFiles {
		return nil, fmt.Errorf("corpus has %d writable files, too few for a ransomware session", len(pool))
	}
	return pool, nil
}

// genSession is one pre-generated session: its batches, in order.
type genSession struct {
	ransom  bool
	batches [][]host.Op
	// filesThrough[b] is how many distinct files the session had attacked
	// by the end of batch b (ransomware sessions only).
	filesThrough []int
	ops          int
}

// poolFiles is how many corpus files the traffic uses: 192 of them (every
// file whose index modulo poolCycle is below ransomShare) feed the
// ransomware sessions, the other 224 the benign ones. With ingestSessions
// sessions every file is used the same number of times whatever the seed,
// so a seed rearranges the traffic without changing how much work it is.
const (
	poolFiles   = 416
	poolCycle   = 13
	ransomShare = 6
)

// generateSessions builds n sessions from the first poolFiles files of
// pool, deterministically from seed: which sessions are ransomware (exactly
// one in ransomEvery), which files each benign session touches (the benign
// pool consumed in a seeded order), and every edit and key. The files each
// ransomware session attacks, and how, are the same whatever the seed: the
// batch whose ack first shows a detection depends on them, and with a
// seeded layout detect_latency_ms would step between batches from seed to
// seed.
func generateSessions(pool []poolFile, seed int64, n int) []genSession {
	rng := rand.New(rand.NewSource(seed))
	layout := rand.New(rand.NewSource(corpusSeed))
	var ransomPool, benignPool []poolFile
	for i, f := range pool[:min(poolFiles, len(pool))] {
		if i%poolCycle < ransomShare {
			ransomPool = append(ransomPool, f)
		} else {
			benignPool = append(benignPool, f)
		}
	}
	ransom := make(map[int]bool)
	for i := 0; i < n; i += ransomEvery {
		ransom[i+rng.Intn(min(ransomEvery, n-i))] = true
	}
	rp, bp := newPicker(ransomPool, layout), newPicker(benignPool, rng)
	out := make([]genSession, n)
	for i := range out {
		if ransom[i] {
			out[i] = ransomSession(rp.take(ransomFiles), layout, rng)
		} else {
			out[i] = benignSession(bp.take(benignFiles), rng)
		}
	}
	return out
}

// picker deals files from a pool in a seeded order, reshuffling each time
// the pool is used up, so every file is dealt equally often.
type picker struct {
	pool  []poolFile
	order []int
	rng   *rand.Rand
}

func newPicker(pool []poolFile, rng *rand.Rand) *picker { return &picker{pool: pool, rng: rng} }

// take deals n files, distinct when n does not exceed the pool.
func (p *picker) take(n int) []poolFile {
	out := make([]poolFile, 0, n)
	for len(out) < n {
		if len(p.order) == 0 {
			p.order = p.rng.Perm(len(p.pool))
		}
		out = append(out, p.pool[p.order[0]])
		p.order = p.order[1:]
	}
	return out
}

// benignSession edits a few files in place, a few bytes at a time, the
// way an editor saves a document.
func benignSession(files []poolFile, rng *rand.Rand) genSession {
	cur := make([][]byte, len(files))
	for i, f := range files {
		cur[i] = f.content
	}
	var ops []host.Op
	for e := 0; e < benignEdits; e++ {
		for i, pf := range files {
			after := smallEdit(cur[i], rng)
			ops = append(ops, cryptodrop.OpWrite(benignPID, pf.path, pf.id, cur[i], after))
			cur[i] = after
		}
	}
	return batchUp(genSession{}, ops, nil)
}

// smallEdit overwrites a short run of bytes with bytes copied from
// elsewhere in the same file, keeping its type and byte distribution.
func smallEdit(content []byte, rng *rand.Rand) []byte {
	out := append([]byte(nil), content...)
	n := min(16+rng.Intn(48), len(out)/4)
	if n == 0 {
		return out
	}
	dst := rng.Intn(len(out) - n + 1)
	src := rng.Intn(len(out) - n + 1)
	copy(out[dst:dst+n], content[src:src+n])
	return out
}

// ransomSession encrypts files with AES-CTR: mostly in place, some then
// renamed to a new extension, some written to a new file with the
// original deleted. shapes picks each file's shape, keys the key and IV.
func ransomSession(files []poolFile, shapes, keys *rand.Rand) genSession {
	key := make([]byte, 32)
	iv := make([]byte, aes.BlockSize)
	keys.Read(key)
	keys.Read(iv)
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err) // a 32-byte key is always valid
	}
	var ops []host.Op
	var fileAt []int // op index of each file's first op
	for n, pf := range files {
		enc := make([]byte, len(pf.content))
		cipher.NewCTR(block, iv).XORKeyStream(enc, pf.content)
		fileAt = append(fileAt, len(ops))
		switch shape := shapes.Intn(20); {
		case shape < 12:
			ops = append(ops, cryptodrop.OpWrite(ransomPID, pf.path, pf.id, pf.content, enc))
		case shape < 17:
			ops = append(ops,
				cryptodrop.OpWrite(ransomPID, pf.path, pf.id, pf.content, enc),
				cryptodrop.OpRename(ransomPID, pf.path, pf.path+".locked", pf.id))
		default:
			id := uint64(createdIDBase + n)
			np := pf.path + ".enc"
			ops = append(ops,
				cryptodrop.OpBaseline(ransomPID, pf.path, pf.id, pf.content),
				cryptodrop.OpCreate(ransomPID, np, id),
				cryptodrop.OpClose(ransomPID, np, id, enc),
				cryptodrop.OpDelete(ransomPID, pf.path, pf.id))
		}
	}
	return batchUp(genSession{ransom: true}, ops, fileAt)
}

// batchUp splits ops into batches and, given each file's first op index,
// records how many files each batch boundary covers.
func batchUp(s genSession, ops []host.Op, fileAt []int) genSession {
	s.ops = len(ops)
	for b := 0; b < len(ops); b += batchOps {
		end := min(b+batchOps, len(ops))
		s.batches = append(s.batches, ops[b:end])
		if fileAt != nil {
			s.filesThrough = append(s.filesThrough, sort.SearchInts(fileAt, end))
		}
	}
	return s
}
