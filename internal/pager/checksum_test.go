package pager

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
)

// TestChecksumMatchesStdlib compares checksum with crc32.Checksum on every
// length up to 1 KiB and on page-sized and large inputs, at every start
// offset within a word, over random, all-zero and all-0xFF bytes.
func TestChecksumMatchesStdlib(t *testing.T) {
	t.Logf("fold kernel: %v", useFold)
	lengths := []int{4092, 4096, 65543}
	for n := 0; n <= 1024; n++ {
		lengths = append(lengths, n)
	}
	rnd := make([]byte, 65543+8)
	rand.New(rand.NewSource(1)).Read(rnd)
	ones := make([]byte, len(rnd))
	for i := range ones {
		ones[i] = 0xFF
	}
	for _, fill := range []struct {
		name string
		buf  []byte
	}{{"random", rnd}, {"zero", make([]byte, len(rnd))}, {"ones", ones}} {
		for _, n := range lengths {
			for off := 0; off < 8; off++ {
				b := fill.buf[off : off+n]
				if got, want := checksum(b), crc32.Checksum(b, crcTable); got != want {
					t.Fatalf("%s bytes, length %d at offset %d: checksum %08x, crc32.Checksum %08x", fill.name, n, off, got, want)
				}
			}
		}
	}
}

// clmul is the 128-bit carry-less product of a and b.
func clmul(a, b uint64) (lo, hi uint64) {
	for i := 0; i < 64; i++ {
		if b>>i&1 != 0 {
			lo ^= a << i
			if i > 0 {
				hi ^= a >> (64 - i)
			}
		}
	}
	return lo, hi
}

// lane is one 128-bit lane of the message, as the kernel loads it.
type lane [2]uint64

func loadLane(b []byte) lane {
	return lane{binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])}
}

// foldLane is one lane of FOLD: x moved forward by k's span, plus data.
func foldLane(x lane, k [2]uint64, data lane) lane {
	l0, h0 := clmul(x[0], k[0])
	l1, h1 := clmul(x[1], k[1])
	return lane{l0 ^ l1 ^ data[0], h0 ^ h1 ^ data[1]}
}

// modelFold is the kernel's computation step by step in Go: sixteen lane
// accumulators over 256-byte blocks, merged pairwise as YMM registers,
// 32-byte steps, the last lane, and a CRC register of 0 over the folded
// 16 bytes and the tail.
func modelFold(b []byte, k [3][2]uint64) uint32 {
	var acc [16]lane
	for j := range acc {
		acc[j] = loadLane(b[16*j:])
	}
	acc[0][0] ^= 0xFFFFFFFF
	for b = b[256:]; len(b) >= 256; b = b[256:] {
		for j := range acc {
			acc[j] = foldLane(acc[j], k[0], loadLane(b[16*j:]))
		}
	}
	y := [2]lane{acc[0], acc[1]}
	for i := 2; i < 16; i += 2 {
		y = [2]lane{foldLane(y[0], k[1], acc[i]), foldLane(y[1], k[1], acc[i+1])}
	}
	for ; len(b) >= 32; b = b[32:] {
		y = [2]lane{foldLane(y[0], k[1], loadLane(b)), foldLane(y[1], k[1], loadLane(b[16:]))}
	}
	x := foldLane(y[0], k[2], y[1])
	var folded [16]byte
	binary.LittleEndian.PutUint64(folded[:], x[0])
	binary.LittleEndian.PutUint64(folded[8:], x[1])
	// crc32.Update starts its register at ^crc and returns its complement.
	return crc32.Update(crc32.Update(^uint32(0), crcTable, folded[:]), crcTable, b)
}

// TestFoldConstants checks the derived fold constants without the
// instruction: a carry-less-multiply model of the kernel on foldKeys gives
// crc32.Checksum on every path through it.
func TestFoldConstants(t *testing.T) {
	buf := make([]byte, 2*PageSize)
	rand.New(rand.NewSource(2)).Read(buf)
	for _, n := range []int{256, 257, 287, 288, 300, 511, 512, 543, 1000, 1024, 4092, 4096, 8191} {
		b := buf[len(buf)-n:]
		if got, want := modelFold(b, foldKeys), crc32.Checksum(b, crcTable); got != want {
			t.Fatalf("length %d: model %08x, crc32.Checksum %08x", n, got, want)
		}
	}
}

// TestVerifyCatchesEveryBitFlip flips each bit of a sealed page, the stored
// checksum included, and requires verify to reject every one.
func TestVerifyCatchesEveryBitFlip(t *testing.T) {
	const id = PageID(7)
	var p Page
	p.Reset(id, TypeLeaf)
	cell := make([]byte, 100)
	rng := rand.New(rand.NewSource(3))
	for i := 0; ; i++ {
		rng.Read(cell)
		if !p.Insert(i, cell) {
			break
		}
	}
	p.seal()
	if err := p.verify(id); err != nil {
		t.Fatalf("sealed page: %v", err)
	}
	for bit := 0; bit < 8*PageSize; bit++ {
		p.buf[bit/8] ^= 1 << (bit % 8)
		if p.verify(id) == nil {
			t.Fatalf("page with bit %d flipped verifies", bit)
		}
		p.buf[bit/8] ^= 1 << (bit % 8)
	}
}

// FuzzPageChecksum checks checksum against crc32.Checksum on arbitrary
// bytes from any start offset: the first n bytes of data, repeated when it
// is shorter. The length is its own input, so that a long message does not
// need a long data, which the fuzzer would spend its time minimizing.
func FuzzPageChecksum(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint16(0))
	f.Add([]byte{1, 2, 3}, uint16(300), uint16(3))
	f.Add([]byte("page"), uint16(PageSize), uint16(4))
	f.Fuzz(func(t *testing.T, data []byte, n, off uint16) {
		if len(data) == 0 {
			data = []byte{0}
		}
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = data[i%len(data)]
		}
		b := buf[int(off)%(len(buf)+1):]
		if got, want := checksum(b), crc32.Checksum(b, crcTable); got != want {
			t.Fatalf("length %d: checksum %08x, crc32.Checksum %08x", len(b), got, want)
		}
	})
}

// BenchmarkReadPage is the read path's own cost: one op reads and verifies
// a 64-page MemBackend file 256 times through File.ReadPage, so it lasts
// over a millisecond with the fold kernel and is timed by the bench gate.
func BenchmarkReadPage(b *testing.B) {
	const pages, rounds = 64, 256
	f, err := Create(NewMemBackend())
	if err != nil {
		b.Fatal(err)
	}
	var p Page
	rng := rand.New(rand.NewSource(4))
	for id := PageID(2); id < 2+pages; id++ {
		p.Reset(id, TypeRun)
		rng.Read(p.buf[HeaderSize:])
		if err := f.WritePage(id, &p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rounds; r++ {
			for id := PageID(2); id < 2+pages; id++ {
				if err := f.ReadPage(id, &p); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
