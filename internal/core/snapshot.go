package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

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
// Consolidate first.
func (e *Engine) SaveSnapshot(w io.Writer) error {
	if e.closed.Load() {
		return ErrClosed
	}
	e.stagedMu.Lock()
	defer e.stagedMu.Unlock()
	sigs, entriesBySet := e.snapshotWithPrefix(len(e.staged))

	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	var flags uint32
	if e.cfg.ExactVerify {
		flags |= snapFlagTags
	}
	if err := binary.Write(bw, binary.LittleEndian, flags); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(sigs))); err != nil {
		return err
	}

	var sigBuf []byte
	for si, sig := range sigs {
		entries := entriesBySet[si]
		sigBuf = sig.AppendBinary(sigBuf[:0])
		if _, err := bw.Write(sigBuf); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(entries))); err != nil {
			return err
		}
		for _, en := range entries {
			if err := binary.Write(bw, binary.LittleEndian, uint32(en.key)); err != nil {
				return err
			}
			if flags&snapFlagTags != 0 {
				if len(en.tags) > 0xffff {
					return fmt.Errorf("tagmatch: tag set too large to snapshot (%d tags)", len(en.tags))
				}
				if err := binary.Write(bw, binary.LittleEndian, uint16(len(en.tags))); err != nil {
					return err
				}
				for _, t := range en.tags {
					if len(t) > 0xffff {
						return fmt.Errorf("tagmatch: tag too long to snapshot (%d bytes)", len(t))
					}
					if err := binary.Write(bw, binary.LittleEndian, uint16(len(t))); err != nil {
						return err
					}
					if _, err := bw.WriteString(t); err != nil {
						return err
					}
				}
			}
		}
	}
	return bw.Flush()
}

// LoadSnapshot reads a snapshot into the engine's staging area and
// consolidates. It is intended for freshly created engines; loading into
// a non-empty engine merges the snapshot's associations with existing
// ones. A snapshot written with tags loads into any engine, but exact
// verification only applies if the loading engine has ExactVerify set.
func (e *Engine) LoadSnapshot(r io.Reader) error {
	if e.closed.Load() {
		return ErrClosed
	}
	br := bufio.NewReaderSize(r, 1<<20)

	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("%w: reading magic: %v", ErrBadSnapshot, err)
	}
	if magic != snapshotMagic {
		return fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, magic[:])
	}
	var flags uint32
	if err := binary.Read(br, binary.LittleEndian, &flags); err != nil {
		return fmt.Errorf("%w: reading flags: %v", ErrBadSnapshot, err)
	}
	var nSets uint64
	if err := binary.Read(br, binary.LittleEndian, &nSets); err != nil {
		return fmt.Errorf("%w: reading set count: %v", ErrBadSnapshot, err)
	}

	// Accumulate locally and commit only after the whole stream parses:
	// a malformed snapshot must not leave a partial load staged.
	var ops []stagedOp
	sigBuf := make([]byte, bitvec.Blocks*8)
	for s := uint64(0); s < nSets; s++ {
		if _, err := io.ReadFull(br, sigBuf); err != nil {
			return fmt.Errorf("%w: reading signature %d: %v", ErrBadSnapshot, s, err)
		}
		sig, err := bitvec.FromBinary(sigBuf)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		var nEntries uint32
		if err := binary.Read(br, binary.LittleEndian, &nEntries); err != nil {
			return fmt.Errorf("%w: reading entry count: %v", ErrBadSnapshot, err)
		}
		for i := uint32(0); i < nEntries; i++ {
			var key uint32
			if err := binary.Read(br, binary.LittleEndian, &key); err != nil {
				return fmt.Errorf("%w: reading key: %v", ErrBadSnapshot, err)
			}
			var tags []string
			if flags&snapFlagTags != 0 {
				var nTags uint16
				if err := binary.Read(br, binary.LittleEndian, &nTags); err != nil {
					return fmt.Errorf("%w: reading tag count: %v", ErrBadSnapshot, err)
				}
				if e.cfg.ExactVerify {
					tags = make([]string, nTags)
				}
				for j := 0; j < int(nTags); j++ {
					var tl uint16
					if err := binary.Read(br, binary.LittleEndian, &tl); err != nil {
						return fmt.Errorf("%w: reading tag length: %v", ErrBadSnapshot, err)
					}
					if tags == nil {
						// Tags are only consulted by ExactVerify: skip the
						// bytes instead of materializing millions of
						// short-lived strings on a bulk load.
						if _, err := br.Discard(int(tl)); err != nil {
							return fmt.Errorf("%w: reading tag: %v", ErrBadSnapshot, err)
						}
						continue
					}
					raw := make([]byte, tl)
					if _, err := io.ReadFull(br, raw); err != nil {
						return fmt.Errorf("%w: reading tag: %v", ErrBadSnapshot, err)
					}
					tags[j] = string(raw)
				}
			}
			ops = append(ops, stagedOp{sig: sig, key: Key(key), tags: tags})
		}
	}
	// Splice the parsed ops into the staged log inside the synchronous
	// consolidation's Phase A rather than staging them here: submissions
	// are blocked for the whole pass, so the bulk never needs an overlay
	// generation of its own (a snapshot-sized overlay would cost hundreds
	// of MB of bit-sliced groups and per-key maps just to be thrown away
	// at the swap). The loaded sets are matchable when LoadSnapshot
	// returns; concurrently staged ops survive as the suffix and are
	// replayed into the fresh overlay by the swap's rebuild.
	return e.consolidateOnce(false, ops)
}
