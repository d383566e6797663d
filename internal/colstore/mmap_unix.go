//go:build linux || darwin || freebsd || netbsd || openbsd

package colstore

import (
	"os"
	"syscall"
)

// mmapFile maps the whole file read-only and shared: the mapping is
// backed by the page cache, so unread columns cost address space, not
// memory, and released pages fault back in from the immutable file.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	if size == 0 {
		return nil, nil
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmap(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	return syscall.Munmap(b)
}

// releasePages tells the OS the page-aligned extent of b[lo:hi] is not
// needed; on a read-only shared file mapping MADV_DONTNEED is
// non-destructive — a later access transparently re-reads the file.
// Best-effort: errors are ignored (eviction is advisory).
func releasePages(b []byte, lo, hi int64) {
	if len(b) == 0 || hi <= lo {
		return
	}
	page := int64(os.Getpagesize())
	// Round inward so partial pages shared with a live neighbor block
	// are kept resident.
	lo = (lo + page - 1) / page * page
	hi = hi / page * page
	if hi <= lo || hi > int64(len(b)) {
		return
	}
	_ = syscall.Madvise(b[lo:hi], syscall.MADV_DONTNEED)
}
