package deverr

import (
	"errors"
	"fmt"
	"io"
	"testing"
)

func TestErrorString(t *testing.T) {
	for _, tc := range []struct {
		err  *Error
		want string
	}{
		{&Error{Op: OpRead, LBA: 7, Kind: KindEIO, Transient: true},
			"deverr: transient eio read at lba 7"},
		{&Error{Op: OpWrite, LBA: 0, Kind: KindLatent},
			"deverr: persistent latent write at lba 0"},
		{&Error{Op: OpSync, LBA: -1, Kind: KindEIO, Cause: io.ErrShortWrite},
			"deverr: persistent eio sync at lba -1: short write"},
		{&Error{Op: OpRestore, LBA: 4096, Kind: KindBounds, Transient: true, Cause: io.ErrUnexpectedEOF},
			"deverr: transient bounds restore at lba 4096: unexpected EOF"},
	} {
		if got := tc.err.Error(); got != tc.want {
			t.Errorf("Error() = %q, want %q", got, tc.want)
		}
	}
}

func TestAsThroughWrapping(t *testing.T) {
	de := &Error{Op: OpRead, LBA: 3, Kind: KindLatent, Cause: io.ErrUnexpectedEOF}
	wrapped := fmt.Errorf("sstable: block 9: %w", fmt.Errorf("extfs: read: %w", de))
	got, ok := As(wrapped)
	if !ok || got != de {
		t.Fatalf("As(wrapped) = %v, %v; want the original *Error", got, ok)
	}
	if !errors.Is(wrapped, io.ErrUnexpectedEOF) {
		t.Fatal("the syscall cause is not reachable through the device error")
	}
	for _, err := range []error{nil, io.EOF, fmt.Errorf("plain: %w", io.EOF)} {
		if got, ok := As(err); ok || got != nil {
			t.Errorf("As(%v) = %v, %v; want nil, false", err, got, ok)
		}
	}
}

func TestLatch(t *testing.T) {
	if Latch(nil) != nil {
		t.Fatal("Latch(nil) must stay nil")
	}
	root := &Error{Op: OpWrite, LBA: 11, Kind: KindEIO, Transient: true}
	latched := Latch(fmt.Errorf("checkpoint: %w", root))
	if want := "latched: checkpoint: " + root.Error(); latched.Error() != want {
		t.Fatalf("Error() = %q, want %q", latched.Error(), want)
	}
	if got, ok := As(latched); !ok || got != root || !errors.Is(latched, root) {
		t.Fatalf("root cause not reachable through the latch: %v, %v", got, ok)
	}
	var l *Latched
	if !errors.As(latched, &l) || errors.Unwrap(latched) != l.Cause {
		t.Fatalf("Unwrap does not expose the latched cause")
	}
	// Idempotent: an already-latched chain, however wrapped, comes back as is.
	if again := Latch(latched); again != latched {
		t.Fatalf("Latch re-wrapped a latched error: %v", again)
	}
	outer := fmt.Errorf("put: %w", latched)
	if again := Latch(outer); again != outer {
		t.Fatalf("Latch re-wrapped a chain holding a latch: %v", again)
	}
}

func TestIsTransient(t *testing.T) {
	transient := &Error{Op: OpRead, LBA: 1, Kind: KindEIO, Transient: true}
	persistent := &Error{Op: OpRead, LBA: 1, Kind: KindLatent}
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"transient", transient, true},
		{"persistent", persistent, false},
		{"latched transient", Latch(transient), false},
		{"wrapped latched transient", fmt.Errorf("get: %w", Latch(transient)), false},
		{"wrapped transient", fmt.Errorf("wal: append: %w", transient), true},
		{"wrapped persistent", fmt.Errorf("wal: append: %w", persistent), false},
		{"non-device error", io.ErrClosedPipe, false},
		{"nil", nil, false},
	} {
		if got := IsTransient(tc.err); got != tc.want {
			t.Errorf("IsTransient(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}
