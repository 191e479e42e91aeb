//go:build unix

package runner

import (
	"errors"
	"io/fs"
	"syscall"
)

// readEntryFile reads a whole cache entry: one open, fstat, read and close.
// os.ReadFile costs about twice as much for an entry of a few KB: it
// registers the file with the runtime poller (which cannot poll a regular
// file) and reads a second time to find EOF. An entry is replaced only by a
// rename, never rewritten in place, so the size fstat reports is the size to
// read; a file that shrinks meanwhile returns the bytes it still had, as
// os.ReadFile would.
func readEntryFile(name string) ([]byte, error) {
	var (
		fd  int
		err error
	)
	for {
		fd, err = syscall.Open(name, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: err}
	}
	defer syscall.Close(fd)
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		return nil, &fs.PathError{Op: "stat", Path: name, Err: err}
	}
	if st.Mode&syscall.S_IFMT != syscall.S_IFREG {
		return nil, &fs.PathError{Op: "read", Path: name, Err: errors.New("not a regular file")}
	}
	size := int(st.Size)
	if int64(size) != st.Size {
		return nil, &fs.PathError{Op: "read", Path: name, Err: syscall.EFBIG}
	}
	buf := make([]byte, size)
	for n := 0; n < size; {
		m, err := syscall.Read(fd, buf[n:])
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return nil, &fs.PathError{Op: "read", Path: name, Err: err}
		case m == 0:
			return buf[:n], nil
		}
		n += m
	}
	return buf, nil
}
