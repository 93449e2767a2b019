package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"tagmatch/internal/bitvec"
)

// Snapshot format (little-endian):
//
//	magic   [8]byte  "TMSNAP01"
//	flags   u32      bit 0: entries carry tags (ExactVerify databases)
//	nSets   u64      number of unique signatures
//	then per unique signature:
//	  sig      [24]byte   big-endian blocks (bitvec encoding)
//	  nEntries u32
//	  per entry:
//	    key   u32
//	    nTags u16        (only when flags bit 0 is set)
//	    per tag: u16 length + bytes
//
// A snapshot captures the logical master database — the durable state of
// the engine — with any staged (unconsolidated) operations applied on
// the fly through a copy-on-write overlay, so a snapshot taken mid-churn
// is exactly what a Consolidate at the same instant would have
// committed. The partitioned index is derived state and is rebuilt by
// Consolidate on load, exactly as the paper's system rebuilds its index
// offline.
var snapshotMagic = [8]byte{'T', 'M', 'S', 'N', 'A', 'P', '0', '1'}

const snapFlagTags = 1 << 0

// ErrBadSnapshot reports a malformed or incompatible snapshot stream.
var ErrBadSnapshot = errors.New("tagmatch: malformed snapshot")

// SaveSnapshot writes the database to w, staged operations included:
// the stream carries db ⊕ staged, materialized without mutating either,
// so pending ops survive a save/load cycle without requiring a
// Consolidate first. Records are encoded into one reused scratch slice
// and written out in chunks of about snapshotChunk bytes.
func (e *Engine) SaveSnapshot(w io.Writer) error {
	if e.closed.Load() {
		return ErrClosed
	}
	e.stagedMu.Lock()
	defer e.stagedMu.Unlock()
	sigs, entriesBySet := e.snapshotWithPrefix(len(e.staged))

	var flags uint32
	if e.cfg.ExactVerify {
		flags |= snapFlagTags
	}
	buf := make([]byte, 0, snapshotChunk+4096)
	buf = append(buf, snapshotMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(sigs)))
	for si, sig := range sigs {
		entries := entriesBySet[si]
		buf = sig.AppendBinary(buf)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
		for _, en := range entries {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(en.key))
			if flags&snapFlagTags == 0 {
				continue
			}
			if len(en.tags) > 0xffff {
				return fmt.Errorf("tagmatch: tag set too large to snapshot (%d tags)", len(en.tags))
			}
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(en.tags)))
			for _, t := range en.tags {
				if len(t) > 0xffff {
					return fmt.Errorf("tagmatch: tag too long to snapshot (%d bytes)", len(t))
				}
				buf = binary.LittleEndian.AppendUint16(buf, uint16(len(t)))
				buf = append(buf, t...)
			}
		}
		if len(buf) >= snapshotChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// snapshotChunk is the size at which SaveSnapshot hands its encoded
// records to the writer.
const snapshotChunk = 1 << 20

// LoadSnapshot reads a snapshot and consolidates it into the engine. It
// is intended for freshly created engines; loading into a non-empty
// engine merges the snapshot's associations with existing ones, after
// any staged operations. A snapshot written with tags loads into any
// engine, but exact verification only applies if the loading engine has
// ExactVerify set.
func (e *Engine) LoadSnapshot(r io.Reader) error {
	if e.closed.Load() {
		return ErrClosed
	}
	br := bufio.NewReaderSize(r, 1<<20)
	// Fixed-width fields are read into one small array and decoded in
	// place.
	var fixed [bitvec.Blocks * 8]byte
	read := func(n int, what string) ([]byte, error) {
		if _, err := io.ReadFull(br, fixed[:n]); err != nil {
			return nil, fmt.Errorf("%w: reading %s: %v", ErrBadSnapshot, what, err)
		}
		return fixed[:n], nil
	}

	b, err := read(len(snapshotMagic), "magic")
	if err != nil {
		return err
	}
	if [8]byte(b) != snapshotMagic {
		return fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, b)
	}
	if b, err = read(4, "flags"); err != nil {
		return err
	}
	flags := binary.LittleEndian.Uint32(b)
	if b, err = read(8, "set count"); err != nil {
		return err
	}
	nSets := binary.LittleEndian.Uint64(b)

	// Accumulate locally and commit only after the whole stream parses: a
	// malformed snapshot must not leave a partial load behind. The set
	// count comes from the stream, so it only caps the pre-sizing.
	presize := min(nSets, 1<<16)
	bulk := bulkLoad{sigs: make([]bitvec.Vector, 0, presize)}
	ends := make([]int, 0, presize)
	all := make([]dbEntry, 0, presize)
	var tagBuf []byte
	for s := uint64(0); s < nSets; s++ {
		if b, err = read(bitvec.Blocks*8, "signature"); err != nil {
			return err
		}
		sig, err := bitvec.FromBinary(b)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		if b, err = read(4, "entry count"); err != nil {
			return err
		}
		nEntries := binary.LittleEndian.Uint32(b)
		for i := uint32(0); i < nEntries; i++ {
			if b, err = read(4, "key"); err != nil {
				return err
			}
			en := dbEntry{key: Key(binary.LittleEndian.Uint32(b))}
			if flags&snapFlagTags != 0 {
				if b, err = read(2, "tag count"); err != nil {
					return err
				}
				nTags := int(binary.LittleEndian.Uint16(b))
				if e.cfg.ExactVerify {
					en.tags = make([]string, nTags)
				}
				for j := 0; j < nTags; j++ {
					if b, err = read(2, "tag length"); err != nil {
						return err
					}
					tl := int(binary.LittleEndian.Uint16(b))
					if en.tags == nil {
						// Tags are only consulted by ExactVerify: skip the
						// bytes instead of materializing millions of
						// short-lived strings on a bulk load.
						if _, err := br.Discard(tl); err != nil {
							return fmt.Errorf("%w: reading tag: %v", ErrBadSnapshot, err)
						}
						continue
					}
					tagBuf = slices.Grow(tagBuf[:0], tl)[:tl]
					if _, err := io.ReadFull(br, tagBuf); err != nil {
						return fmt.Errorf("%w: reading tag: %v", ErrBadSnapshot, err)
					}
					en.tags[j] = string(tagBuf)
				}
			}
			all = append(all, en)
		}
		bulk.sigs = append(bulk.sigs, sig)
		ends = append(ends, len(all))
	}
	// The engine keeps these entries as its database, so they live in one
	// exactly sized array, each set's a capacity-limited window of it: a
	// later add to the set reallocates instead of overwriting its
	// neighbour's.
	if cap(all) > len(all) {
		all = append(make([]dbEntry, 0, len(all)), all...)
	}
	bulk.entries = make([][]dbEntry, len(ends))
	start := 0
	for i, end := range ends {
		bulk.entries[i] = all[start:end:end]
		start = end
	}
	// Submissions are blocked for the whole synchronous pass, so the bulk
	// never needs an overlay generation of its own (a snapshot-sized
	// overlay would cost hundreds of MB of bit-sliced groups and per-key
	// maps just to be thrown away at the swap). The loaded sets are
	// matchable when LoadSnapshot returns; ops staged meanwhile survive as
	// the suffix and are replayed into the fresh overlay by the swap.
	return e.consolidateOnce(false, bulk)
}
