package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// A checkpoint is a full snapshot of every table, written atomically
// (temp file + fsync + rename) so that at any instant exactly one valid
// checkpoint exists on disk. Format:
//
//	header  := magic(uint32) | version(uint32) | txnID(uint64) | numTables(uint32)
//	table   := nameLen(uint16) | name | count(uint64) | entries...
//	entry   := keyLen(uint32) | key | valLen(uint32) | val
//	trailer := crc32(uint32 over everything before it)
//
// txnID is the first transaction the snapshot does not hold. Recovery loads
// the checkpoint (verifying the CRC), then replays wal.prev.log and wal.log
// on top, skipping records below txnID: a retired log whose removal a crash
// undid is harmless.

const (
	checkpointMagic   = uint32(0xFE44E7C9)
	checkpointVersion = uint32(1)
)

// writeCheckpoint writes frozen tables into dir: transactions below txnID.
func writeCheckpoint(fs FS, dir string, txnID uint64, tables map[string]*btree) error {
	tmp := filepath.Join(dir, "checkpoint.tmp")
	final := filepath.Join(dir, "checkpoint.db")
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	w := bufio.NewWriterSize(io.MultiWriter(f, crc), 1<<16)

	var hdr [20]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], checkpointMagic)
	le.PutUint32(hdr[4:], checkpointVersion)
	le.PutUint64(hdr[8:], txnID)
	le.PutUint32(hdr[16:], uint32(len(tables)))
	// The writer's error is sticky: a failed write fails every later one,
	// and Flush reports it.
	w.Write(hdr[:])
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)
	var scratch [8]byte
	for _, name := range names {
		t := tables[name]
		w.Write(le.AppendUint16(scratch[:0], uint16(len(name))))
		w.WriteString(name)
		w.Write(le.AppendUint64(scratch[:0], uint64(t.Len())))
		t.AscendRange(nil, nil, func(k, v []byte) bool {
			w.Write(le.AppendUint32(scratch[:0], uint32(len(k))))
			w.Write(k)
			w.Write(le.AppendUint32(scratch[:0], uint32(len(v))))
			_, err := w.Write(v)
			return err == nil
		})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	// Trailer CRC covers everything written so far.
	var trailer [4]byte
	le.PutUint32(trailer[0:], crc.Sum32())
	if _, err := f.Write(trailer[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, final); err != nil {
		return err
	}
	return syncDir(fs, dir)
}

// loadCheckpoint reads a checkpoint into a fresh table map. A missing file
// yields an empty map; a corrupt file is an error (the store refuses to
// open rather than silently serving bad data).
func loadCheckpoint(fs FS, dir string) (map[string]*btree, uint64, error) {
	path := filepath.Join(dir, "checkpoint.db")
	data, err := fs.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return map[string]*btree{}, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	if len(data) < 24 {
		return nil, 0, errors.New("kvstore: checkpoint too short")
	}
	le := binary.LittleEndian
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != le.Uint32(trailer) {
		return nil, 0, errors.New("kvstore: checkpoint CRC mismatch")
	}
	if le.Uint32(body[0:]) != checkpointMagic {
		return nil, 0, errors.New("kvstore: bad checkpoint magic")
	}
	if v := le.Uint32(body[4:]); v != checkpointVersion {
		return nil, 0, fmt.Errorf("kvstore: unsupported checkpoint version %d", v)
	}
	txnID := le.Uint64(body[8:])
	numTables := int(le.Uint32(body[16:]))
	if numTables > 1<<20 {
		return nil, 0, errors.New("kvstore: implausible checkpoint table count")
	}
	tables := make(map[string]*btree, numTables)
	off := 20
	for ti := 0; ti < numTables; ti++ {
		if off+2 > len(body) {
			return nil, 0, errors.New("kvstore: truncated checkpoint table header")
		}
		nlen := int(le.Uint16(body[off:]))
		off += 2
		if off+nlen+8 > len(body) {
			return nil, 0, errors.New("kvstore: truncated checkpoint table name")
		}
		name := string(body[off : off+nlen])
		off += nlen
		count := int(le.Uint64(body[off:]))
		off += 8
		t := newBtree()
		for i := 0; i < count; i++ {
			if off+4 > len(body) {
				return nil, 0, errors.New("kvstore: truncated checkpoint entry")
			}
			klen := int(le.Uint32(body[off:]))
			off += 4
			if off+klen+4 > len(body) {
				return nil, 0, errors.New("kvstore: truncated checkpoint key")
			}
			k := append([]byte(nil), body[off:off+klen]...)
			off += klen
			vlen := int(le.Uint32(body[off:]))
			off += 4
			if off+vlen > len(body) {
				return nil, 0, errors.New("kvstore: truncated checkpoint value")
			}
			v := append([]byte(nil), body[off:off+vlen]...)
			off += vlen
			t.Put(k, v)
		}
		tables[name] = t
	}
	if off != len(body) {
		return nil, 0, errors.New("kvstore: trailing bytes in checkpoint")
	}
	return tables, txnID, nil
}

// syncDir fsyncs a directory so a rename within it is durable. Both the
// Sync and the Close error are propagated: this is the last step of the
// checkpoint commit, and a discarded error here could report a failed
// rename flush as a committed checkpoint.
func syncDir(fs FS, dir string) error {
	d, err := fs.Open(dir)
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	if closeErr := d.Close(); syncErr == nil {
		syncErr = closeErr
	}
	return syncErr
}
