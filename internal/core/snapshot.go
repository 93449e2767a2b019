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
// A snapshot captures the logical database — the durable state of the
// engine — with any staged (unconsolidated) operations applied on the
// fly to copies of the rows they touch, so a snapshot taken mid-churn is
// exactly what a Consolidate at the same instant would have committed.
// Records come in a deterministic order: the live index's rows in row
// order, then the signatures only staged ops added, in the order they
// were first staged. The partitioned index is rebuilt by Consolidate on
// load, exactly as the paper's system rebuilds its index offline.
var snapshotMagic = [8]byte{'T', 'M', 'S', 'N', 'A', 'P', '0', '1'}

const snapFlagTags = 1 << 0

// ErrBadSnapshot reports a malformed or incompatible snapshot stream.
var ErrBadSnapshot = errors.New("tagmatch: malformed snapshot")

// SaveSnapshot writes the database to w, staged operations included:
// the stream carries the live index ⊕ staged, listed without mutating
// either, so pending ops survive a save/load cycle without requiring a
// Consolidate first. Records are encoded into one reused scratch slice
// and written out in chunks of about snapshotChunk bytes.
func (e *Engine) SaveSnapshot(w io.Writer) error {
	if e.closed.Load() {
		return ErrClosed
	}
	e.stagedMu.Lock()
	defer e.stagedMu.Unlock()
	idx := e.idx.Load()
	db := listDatabase(idx, touchedBy(idx, e.staged, e.cfg.ExactVerify), setList{})

	var flags uint32
	if e.cfg.ExactVerify {
		flags |= snapFlagTags
	}
	buf := make([]byte, 0, snapshotChunk+4096)
	buf = append(buf, snapshotMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(db.sigs)))
	for m, sig := range db.sigs {
		ents := db.lists[m]
		buf = sig.AppendBinary(buf)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ents.keys)))
		for j, k := range ents.keys {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
			if flags&snapFlagTags == 0 {
				continue
			}
			tags := ents.tags[j]
			if len(tags) > 0xffff {
				return fmt.Errorf("tagmatch: tag set too large to snapshot (%d tags)", len(tags))
			}
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(tags)))
			for _, t := range tags {
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
	bulk := setList{sigs: make([]bitvec.Vector, 0, presize)}
	ends := make([]int, 0, presize)
	keys := make([]Key, 0, presize)
	var tags [][]string // parallel to keys in ExactVerify mode
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
			keys = append(keys, Key(binary.LittleEndian.Uint32(b)))
			var enTags []string
			if flags&snapFlagTags != 0 {
				if b, err = read(2, "tag count"); err != nil {
					return err
				}
				nTags := int(binary.LittleEndian.Uint16(b))
				if e.cfg.ExactVerify {
					enTags = make([]string, nTags)
				}
				for j := 0; j < nTags; j++ {
					if b, err = read(2, "tag length"); err != nil {
						return err
					}
					tl := int(binary.LittleEndian.Uint16(b))
					if enTags == nil {
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
					enTags[j] = string(tagBuf)
				}
			}
			if e.cfg.ExactVerify {
				tags = append(tags, enTags)
			}
		}
		bulk.sigs = append(bulk.sigs, sig)
		ends = append(ends, len(keys))
	}
	// The entries live only until the build has copied them into the key
	// table; each set's are a window of the one array.
	bulk.lists = make([]entryList, len(ends))
	start := 0
	for i, end := range ends {
		bulk.lists[i].keys = keys[start:end]
		if tags != nil {
			bulk.lists[i].tags = tags[start:end]
		}
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
