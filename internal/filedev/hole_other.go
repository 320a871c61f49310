//go:build !linux

package filedev

import (
	"errors"
	"os"
)

// punchHole is unsupported off linux; the caller zero-fills.
func punchHole(f *os.File, off, length int64) error {
	return errors.ErrUnsupported
}
