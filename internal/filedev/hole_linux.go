//go:build linux

package filedev

import (
	"os"
	"syscall"
)

// fallocate mode bits (linux/falloc.h); defined locally so the package
// stays dependency-free.
const (
	fallocKeepSize  = 0x01
	fallocPunchHole = 0x02
)

// punchHole deallocates [off, off+length) so it reads back as zeros.
// Filesystems without hole punching return an error and the caller
// zero-fills instead.
func punchHole(f *os.File, off, length int64) error {
	return syscall.Fallocate(int(f.Fd()), fallocPunchHole|fallocKeepSize, off, length)
}
