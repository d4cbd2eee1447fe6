//go:build !amd64

package pager

// useFold is false: the fold kernel is amd64 assembly.
const useFold = false

func crcFold(dst, src []byte, k *[3][2]uint64) uint32 { panic("pager: fold kernel is amd64-only") }
