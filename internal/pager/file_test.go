package pager

import (
	"bytes"
	"io"
	"math/rand"
	"path/filepath"
	"testing"
)

// flatBackend is the reference MemBackend is checked against: the file as
// one []byte, reallocated on every growth.
type flatBackend struct{ data []byte }

func (m *flatBackend) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.ErrUnexpectedEOF
	}
	return n, nil
}

func (m *flatBackend) WriteAt(p []byte, off int64) (int, error) {
	if need := off + int64(len(p)); need > int64(len(m.data)) {
		m.Truncate(need)
	}
	return copy(m.data[off:], p), nil
}

func (m *flatBackend) Truncate(size int64) error {
	if size < int64(len(m.data)) {
		m.data = m.data[:size]
		return nil
	}
	grown := make([]byte, size)
	copy(grown, m.data)
	m.data = grown
	return nil
}

func (m *flatBackend) Size() (int64, error) { return int64(len(m.data)), nil }

// memStep is one backend call: 'w' writes n patterned bytes at off, 'r'
// reads n bytes at off, 't' truncates to off.
type memStep struct {
	op  byte
	off int64
	n   int
}

// runMemSteps applies steps to a MemBackend, the flat reference and a real
// file, and after every step compares bytes, counts and sizes. Errors are
// compared with the reference only: a short os.File read reports io.EOF
// where the in-memory backends report io.ErrUnexpectedEOF.
func runMemSteps(t *testing.T, steps []memStep) {
	t.Helper()
	mem, ref := NewMemBackend(), &flatBackend{}
	file, err := NewFileBackend(filepath.Join(t.TempDir(), "model.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()

	fill := byte(1)
	for i, s := range steps {
		switch s.op {
		case 'w':
			p := make([]byte, s.n)
			for j := range p {
				p[j] = fill
				fill = fill*31 + 7
			}
			n, err := mem.WriteAt(p, s.off)
			if n != s.n || err != nil {
				t.Fatalf("step %d %+v: mem wrote %d, %v", i, s, n, err)
			}
			ref.WriteAt(p, s.off)
			if _, err := file.WriteAt(p, s.off); err != nil {
				t.Fatal(err)
			}
		case 'r':
			got, want, onDisk := make([]byte, s.n), make([]byte, s.n), make([]byte, s.n)
			n, err := mem.ReadAt(got, s.off)
			wantN, wantErr := ref.ReadAt(want, s.off)
			fileN, _ := file.ReadAt(onDisk, s.off)
			if n != wantN || err != wantErr {
				t.Fatalf("step %d %+v: mem read %d, %v; reference %d, %v", i, s, n, err, wantN, wantErr)
			}
			if n != fileN {
				t.Fatalf("step %d %+v: mem read %d bytes, file %d", i, s, n, fileN)
			}
			if !bytes.Equal(got[:n], want[:n]) || !bytes.Equal(got[:n], onDisk[:n]) {
				t.Fatalf("step %d %+v: bytes differ from reference or file", i, s)
			}
		case 't':
			if err := mem.Truncate(s.off); err != nil {
				t.Fatal(err)
			}
			ref.Truncate(s.off)
			if err := file.Truncate(s.off); err != nil {
				t.Fatal(err)
			}
		}
		size, _ := mem.Size()
		refSize, _ := ref.Size()
		fileSize, err := file.Size()
		if err != nil {
			t.Fatal(err)
		}
		if size != refSize || size != fileSize {
			t.Fatalf("step %d %+v: size mem %d, reference %d, file %d", i, s, size, refSize, fileSize)
		}
	}
	// Whatever the steps left behind reads back whole.
	size, _ := mem.Size()
	got, want := make([]byte, size), make([]byte, size)
	mem.ReadAt(got, 0)
	ref.ReadAt(want, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("final image differs from reference")
	}
}

func TestMemBackendAgainstModel(t *testing.T) {
	const c = memChunk
	runMemSteps(t, []memStep{
		{'r', 0, 1},       // empty file: EOF
		{'w', 0, 100},     // inside the first chunk
		{'w', c - 10, 20}, // straddles a chunk boundary
		{'r', c - 10, 20},
		{'r', c - 50, 100},      // runs off the end: short read
		{'w', 3*c + 5, 2*c + 7}, // sparse, far past EOF, spans three chunks
		{'r', c, 2*c + 100},     // the hole reads zeros, then data
		{'r', 5*c + 12, 10},     // at EOF
		{'r', 5*c + 1012, 10},   // past EOF
		{'r', 0, 5*c + 12},      // everything
		{'t', c + 100, 0},       // shrink into the middle of a chunk
		{'t', 4 * c, 0},         // regrow: the cut-off bytes are gone
		{'r', 0, 4 * c},
		{'t', 2 * c, 0}, // shrink to a boundary
		{'w', 2 * c, 1}, // one byte opens the next chunk
		{'r', 2*c - 1, 5},
		{'t', 0, 0},
		{'r', 0, 1},
		{'w', 10, 5}, // leading gap reads zeros
		{'r', 0, 15},
		{'w', c - PageSize, 2 * PageSize}, // a page pair across the boundary
		{'r', c - PageSize, 2 * PageSize},
	})
}

func TestMemBackendRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	steps := make([]memStep, 600)
	for i := range steps {
		off := rng.Int63n(5 * memChunk)
		switch r := rng.Intn(10); {
		case r < 5:
			steps[i] = memStep{'w', off, 1 + rng.Intn(2*memChunk+PageSize)}
		case r < 9:
			steps[i] = memStep{'r', off, 1 + rng.Intn(3*memChunk)}
		default:
			steps[i] = memStep{'t', off, 0}
		}
	}
	runMemSteps(t, steps)
}
