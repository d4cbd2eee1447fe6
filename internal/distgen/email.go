package distgen

import "repro/internal/stats"

// Email generates synthetic email-address keys. The paper (§V-C) uses
// exactly this example: "a table column containing email addresses could be
// replaced by a synthetic email address generator that provides a similar
// data distribution". Addresses are mapped to uint64 keys by interpreting
// the first 8 bytes as a big-endian integer, which preserves the
// lexicographic order an index over the string column would see: the key
// distribution is dominated by the (skewed) first-letter frequencies and
// popular-domain clustering, which is what a learned index must capture.
type Email struct {
	rng     *stats.RNG
	domains []string
	domainZ *stats.Zipf
	letterZ *stats.Zipf
}

// EnglishFirstLetterOrder lists letters by approximate frequency as the
// first letter of English surnames; the generator draws the leading letters
// of local parts Zipf-distributed over this order.
var EnglishFirstLetterOrder = []byte("smbchwgdrlpajkftnevoizyquX")

// DefaultDomains lists provider domains by popularity rank.
var DefaultDomains = []string{
	"gmail.com", "yahoo.com", "hotmail.com", "outlook.com", "aol.com",
	"icloud.com", "proton.me", "mail.com", "gmx.net", "example.org",
}

// NewEmail returns a synthetic email generator.
func NewEmail(seed uint64) *Email {
	rng := stats.NewRNG(seed)
	return &Email{
		rng:     rng,
		domains: DefaultDomains,
		domainZ: stats.NewZipf(rng.Split(), 1.1, uint64(len(DefaultDomains))),
		letterZ: stats.NewZipf(rng.Split(), 0.9, uint64(len(EnglishFirstLetterOrder))),
	}
}

// Name implements Generator.
func (g *Email) Name() string { return "email" }

// Address returns one synthetic email address string.
func (g *Email) Address() string {
	n := 4 + g.rng.Intn(10)
	buf := make([]byte, 0, n+16)
	buf = append(buf, EnglishFirstLetterOrder[g.letterZ.Next()])
	for i := 1; i < n; i++ {
		c := byte('a' + g.rng.Intn(26))
		if g.rng.Intn(8) == 0 {
			c = byte('0' + g.rng.Intn(10))
		}
		if g.rng.Intn(12) == 0 && i < n-1 {
			c = '.'
		}
		buf = append(buf, c)
	}
	buf = append(buf, '@')
	buf = append(buf, g.domains[g.domainZ.Next()]...)
	return string(buf)
}

// Fill implements Generator: each key is the first 8 bytes of a generated
// address, big-endian, preserving lexicographic order. It is the one draw
// that allocates — Address builds a string per key.
func (g *Email) Fill(out []uint64) {
	for i := range out {
		out[i] = StringKey(g.Address())
	}
}

// StringKey maps a string to a uint64 preserving lexicographic order on the
// first 8 bytes (shorter strings are zero-padded, which sorts them first,
// matching string comparison semantics for prefixes).
func StringKey(s string) uint64 {
	var k uint64
	for i := 0; i < 8; i++ {
		k <<= 8
		if i < len(s) {
			k |= uint64(s[i])
		}
	}
	return k
}
