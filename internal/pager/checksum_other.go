//go:build !amd64

package pager

// useFold is false: the fold kernel is amd64 assembly.
const useFold = false

func crcFold(b []byte, k *[3][2]uint64) uint32 { panic("pager: no fold kernel on this architecture") }
