package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"ferret/internal/telemetry"
)

// The write-ahead log is a sequence of self-delimiting records, one per
// committed transaction:
//
//	record  := length(uint32) | crc32(uint32 of payload) | payload
//	payload := txnID(uint64) | numOps(uint32) | op...
//	op      := kind(byte) | tableLen(uint16) | table |
//	           keyLen(uint32) | key | [valLen(uint32) | val]   (puts only)
//
// A record is the atomic unit of recovery: replay applies only records
// whose length and CRC check out, and stops at the first record that does
// not (a torn tail from a crash). This yields the paper's §4.1.3 semantics:
// after a crash the metadata is consistent (no half-applied transactions),
// while updates since the last log sync may be lost.

const (
	opPut    = byte(1)
	opDelete = byte(2)
)

// walOp is one mutation inside a transaction record.
type walOp struct {
	kind  byte
	table string
	key   []byte
	val   []byte
}

// walRecord is one committed transaction.
type walRecord struct {
	txnID uint64
	ops   []walOp
}

// appendTo appends the record framed for the log — length, CRC, payload —
// to buf.
func (r *walRecord) appendTo(buf []byte) []byte {
	size := 12
	for _, op := range r.ops {
		size += 1 + 2 + len(op.table) + 4 + len(op.key)
		if op.kind == opPut {
			size += 4 + len(op.val)
		}
	}
	at := len(buf)
	buf = slices.Grow(buf, 8+size)[:at+8+size]
	hdr, p := buf[at:at+8], buf[at+8:]
	le := binary.LittleEndian
	le.PutUint64(p[0:], r.txnID)
	le.PutUint32(p[8:], uint32(len(r.ops)))
	off := 12
	for _, op := range r.ops {
		p[off] = op.kind
		off++
		le.PutUint16(p[off:], uint16(len(op.table)))
		off += 2
		off += copy(p[off:], op.table)
		le.PutUint32(p[off:], uint32(len(op.key)))
		off += 4
		off += copy(p[off:], op.key)
		if op.kind == opPut {
			le.PutUint32(p[off:], uint32(len(op.val)))
			off += 4
			off += copy(p[off:], op.val)
		}
	}
	le.PutUint32(hdr[0:], uint32(size))
	le.PutUint32(hdr[4:], crc32.ChecksumIEEE(p))
	return buf
}

func decodeWALRecord(payload []byte) (*walRecord, error) {
	le := binary.LittleEndian
	if len(payload) < 12 {
		return nil, errors.New("kvstore: short wal payload")
	}
	r := &walRecord{txnID: le.Uint64(payload[0:])}
	n := int(le.Uint32(payload[8:]))
	off := 12
	for i := 0; i < n; i++ {
		if off+3 > len(payload) {
			return nil, errors.New("kvstore: truncated wal op header")
		}
		kind := payload[off]
		off++
		tlen := int(le.Uint16(payload[off:]))
		off += 2
		if off+tlen+4 > len(payload) {
			return nil, errors.New("kvstore: truncated wal table name")
		}
		table := string(payload[off : off+tlen])
		off += tlen
		klen := int(le.Uint32(payload[off:]))
		off += 4
		if off+klen > len(payload) {
			return nil, errors.New("kvstore: truncated wal key")
		}
		key := append([]byte(nil), payload[off:off+klen]...)
		off += klen
		op := walOp{kind: kind, table: table, key: key}
		switch kind {
		case opPut:
			if off+4 > len(payload) {
				return nil, errors.New("kvstore: truncated wal value length")
			}
			vlen := int(le.Uint32(payload[off:]))
			off += 4
			if off+vlen > len(payload) {
				return nil, errors.New("kvstore: truncated wal value")
			}
			op.val = append([]byte(nil), payload[off:off+vlen]...)
			off += vlen
		case opDelete:
		default:
			return nil, fmt.Errorf("kvstore: unknown wal op kind %d", kind)
		}
		r.ops = append(r.ops, op)
	}
	if off != len(payload) {
		return nil, errors.New("kvstore: trailing bytes in wal payload")
	}
	return r, nil
}

// wal appends transaction records to a log file.
type wal struct {
	f   File
	buf *bufio.Writer
	// size is the current byte length of the log, used for the checkpoint
	// threshold.
	size int64
	// fsyncs counts the log file's fsyncs.
	fsyncs *telemetry.Counter
	// enc is the record encoding buffer, reused by every append.
	enc []byte
}

// openWAL opens the log at path for appending, first cutting it to size bytes:
// records appended behind a torn one would never be replayed.
func openWAL(fs FS, path string, size int64, fsyncs *telemetry.Counter) (*wal, error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w := &wal{f: f, fsyncs: fsyncs}
	w.buf = bufio.NewWriterSize(f, 1<<16)
	if w.size, err = f.Size(); err == nil && w.size > size {
		if err = f.Truncate(size); err == nil {
			w.size = size
			err = w.fsync()
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// append writes a record to the log buffer (not yet durable).
func (w *wal) append(r *walRecord) error {
	w.enc = r.appendTo(w.enc[:0])
	if _, err := w.buf.Write(w.enc); err != nil {
		return err
	}
	w.size += int64(len(w.enc))
	return nil
}

// flush pushes buffered records to the OS.
func (w *wal) flush() error { return w.buf.Flush() }

// sync makes all appended records durable.
func (w *wal) sync() error {
	if err := w.buf.Flush(); err != nil {
		return err
	}
	return w.fsync()
}

// fsync makes the log file's written contents durable.
func (w *wal) fsync() error {
	w.fsyncs.Inc()
	return w.f.Sync()
}

func (w *wal) close() error {
	if err := w.buf.Flush(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.fsync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// replayWAL calls apply for each intact record of the log at path, in
// order, from transaction from on (older ones are in the checkpoint). It
// stops silently at the first torn or corrupt record (the crash-truncated
// tail), or at the first record apply refuses; it returns the records
// applied, the highest transaction ID before the stop and the byte length
// of the records before it.
func replayWAL(fs FS, path string, from uint64, apply func(*walRecord) bool) (applied int, maxTxn uint64, good int64, err error) {
	f, err := fs.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, 0, nil
	}
	if err != nil {
		return 0, 0, 0, err
	}
	// Close errors are surfaced (when nothing worse happened) rather than
	// discarded: replay decides the store's recovered state, so even a
	// read-path descriptor failure is worth knowing about.
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	rd := bufio.NewReaderSize(f, 1<<16)
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(rd, hdr[:]); err != nil {
			return applied, maxTxn, good, nil // clean EOF or torn header: stop
		}
		length := binary.LittleEndian.Uint32(hdr[0:])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:])
		if length > 1<<30 {
			return applied, maxTxn, good, nil // corrupt length: stop
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(rd, payload); err != nil {
			return applied, maxTxn, good, nil // torn payload: stop
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			return applied, maxTxn, good, nil // corrupt payload: stop
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return applied, maxTxn, good, nil // structurally invalid: stop
		}
		if rec.txnID >= from {
			if !apply(rec) {
				return applied, maxTxn, good, nil
			}
			applied++
		}
		good += int64(len(hdr)) + int64(length)
		maxTxn = max(maxTxn, rec.txnID)
	}
}
