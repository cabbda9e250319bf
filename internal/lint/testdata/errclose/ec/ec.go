// Package ec seeds errclose violations on the durability path and the
// sanctioned alternatives.
package ec

import (
	"bufio"
	"os"
)

// badCreate discards the close error of a freshly written file.
func badCreate(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // want "errclose: Close error discarded by bare defer on writable f"
	_, err = f.Write(data)
	return err
}

// badAppend opens for append and bare-defers both Sync and Close.
func badAppend(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Sync()  // want "errclose: Sync error discarded by bare defer on writable f"
	defer f.Close() // want "errclose: Close error discarded by bare defer on writable f"
	_, err = f.WriteString("x")
	return err
}

// badBuffered bare-defers Flush on a bufio writer.
func badBuffered(f *os.File) error {
	w := bufio.NewWriter(f)
	defer w.Flush() // want "errclose: Flush error discarded by bare defer on writable w"
	_, err := w.WriteString("x")
	return err
}

// okRead keeps the idiomatic bare defer: the file is never written.
func okRead(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, 16)
	_, err = f.Read(buf)
	return buf, err
}

// okChecked propagates the close error through a named return.
func okChecked(path string, data []byte) (err error) {
	f, cerr := os.Create(path)
	if cerr != nil {
		return cerr
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	_, err = f.Write(data)
	return err
}

// okExplicit checks the close error inline; the bare mid-function Close is a
// best-effort cleanup on an error path, which the analyzer never flags (only
// defers are).
func okExplicit(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// okSuppressed documents a sanctioned bare defer with a directive.
func okSuppressed(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	//lint:ignore errclose the caller re-reads and checksums the file before use
	defer f.Close()
	_, err = f.WriteString("x")
	return err
}

// staleCheck names a check the suite no longer has: reported, suppressing
// nothing.
func staleCheck(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	//lint:ignore lockpath this check was removed from the suite
	// want-above "directive: //lint:ignore names unknown check"
	defer f.Close()
	return nil
}
