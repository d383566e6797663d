//go:build !(linux || darwin || freebsd || netbsd || openbsd)

package colstore

import (
	"io"
	"os"
)

// mmapFile falls back to reading the whole file into the heap on
// platforms without a wired mmap: every View over the image is still
// correct, and zero-copy within the process still holds, but the image
// is not demand-paged from disk.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	if size == 0 {
		return nil, nil
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}

func munmap(b []byte) error { return nil }

// releasePages is a no-op for a heap image; the GC reclaims it when
// the File closes.
func releasePages(b []byte, lo, hi int64) {}
