package core

import (
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
//	nSets   u64      number of records
//	then per record:
//	  sig      [24]byte   big-endian blocks (bitvec encoding)
//	  nEntries u32
//	  per entry:
//	    key   u32
//	    nTags u16        (only when flags bit 0 is set)
//	    per tag: u16 length + bytes
//
// A record is a signature and entries of its set. A signature may head
// more than one record: the set holds the entries of all of them, in
// stream order. A record without entries adds nothing. SaveSnapshot
// writes one record per set, so nSets counts its unique signatures, and
// none empty; a loader accepts both.
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
	db := listDatabase(idx, touchedBy(idx, e.staged, e.cfg.ExactVerify), setList{}, e.cfg.ExactVerify)

	var flags uint32
	if e.cfg.ExactVerify {
		flags |= snapFlagTags
	}
	buf := make([]byte, 0, snapshotChunk+4096)
	buf = append(buf, snapshotMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(db.sigs)))
	for m, sig := range db.sigs {
		ents := db.entries(m)
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
//
// The records are decoded where they lie in the decoder's buffer, into
// one CSR listing (setList). When r reports how many bytes it has left
// (a Len method, as bytes.Reader and strings.Reader have), the CSR is
// sized once from the set count, capped by those bytes, so a header that
// claims more records than the stream holds allocates nothing for them;
// otherwise the CSR grows as the records arrive.
func (e *Engine) LoadSnapshot(r io.Reader) error {
	if e.closed.Load() {
		return ErrClosed
	}
	// The stream's bytes left, when r tells: they bound the presizing.
	left := -1
	if lr, ok := r.(interface{ Len() int }); ok {
		left = lr.Len()
	}
	d := snapDecoder{r: r, buf: make([]byte, decodeBuffer)}
	if err := d.need(snapshotHead, "header"); err != nil {
		return err
	}
	head := d.take(snapshotHead)
	if [8]byte(head) != snapshotMagic {
		return fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, head[:8])
	}
	tagged := binary.LittleEndian.Uint32(head[8:])&snapFlagTags != 0
	nSets := binary.LittleEndian.Uint64(head[12:])
	withTags := e.cfg.ExactVerify

	// Accumulate locally and commit only after the whole stream parses: a
	// malformed snapshot must not leave a partial load behind.
	bulk := setList{off: []uint32{0}}
	if left >= snapshotHead {
		rest := uint64(left - snapshotHead)
		sets := min(nSets, rest/recordHead)
		bulk.sigs = make([]bitvec.Vector, 0, sets)
		bulk.off = make([]uint32, 1, sets+1)
		if !tagged {
			// Each record is its head and four bytes per key.
			bulk.keys = make([]Key, 0, (rest-sets*recordHead)/4)
		}
	}
	for s := uint64(0); s < nSets; s++ {
		if err := d.need(recordHead, "signature"); err != nil {
			return err
		}
		rec := d.take(recordHead)
		sig, _ := bitvec.FromBinary(rec)
		n := int(binary.LittleEndian.Uint32(rec[bitvec.Blocks*8:]))
		if n == 0 {
			continue
		}
		var err error
		if tagged {
			err = d.taggedEntries(&bulk, n, withTags)
		} else {
			err = d.keys(&bulk, n, withTags)
		}
		if err != nil {
			return err
		}
		bulk.sigs = append(bulk.sigs, sig)
		bulk.off = append(bulk.off, uint32(len(bulk.keys)))
	}
	// Submissions are blocked for the whole synchronous pass, so the bulk
	// never needs an overlay generation of its own (a snapshot-sized
	// overlay would cost hundreds of MB of bit-sliced groups and per-key
	// maps just to be thrown away at the swap). The loaded sets are
	// matchable when LoadSnapshot returns; ops staged meanwhile survive as
	// the suffix and are replayed into the fresh overlay by the swap.
	return e.consolidateOnce(false, bulk)
}

// snapshotHead is the size of a stream's header (magic, flags, set
// count) and recordHead that of a record's (signature, entry count).
// decodeBuffer is the size of the decoder's buffer: the longest field, a
// tag of 2^16-1 bytes, fits.
const (
	snapshotHead = len(snapshotMagic) + 4 + 8
	recordHead   = bitvec.Blocks*8 + 4
	decodeBuffer = 1 << 16
)

// snapDecoder hands a snapshot stream out of one buffer: a record's
// fields are decoded where they lie, and a run of keys costs one bounds
// check for as many of them as the buffer holds.
type snapDecoder struct {
	r   io.Reader
	buf []byte
	at  int // buf[at:end] is read and not yet decoded
	end int
}

// need makes the next k bytes, k at most len(buf), available to take.
func (d *snapDecoder) need(k int, what string) error {
	if d.end-d.at >= k {
		return nil
	}
	d.end = copy(d.buf, d.buf[d.at:d.end])
	d.at = 0
	n, err := io.ReadAtLeast(d.r, d.buf[d.end:], k-d.end)
	d.end += n
	if err != nil {
		return fmt.Errorf("%w: reading %s: %v", ErrBadSnapshot, what, err)
	}
	return nil
}

// take consumes the next k bytes, which need made available.
func (d *snapDecoder) take(k int) []byte {
	b := d.buf[d.at : d.at+k]
	d.at += k
	return b
}

// keys appends a record's n untagged keys to l, and with tags as many nil
// tag sets. The entry count comes from the stream, so nothing is sized
// from it: the keys are appended as they are read.
func (d *snapDecoder) keys(l *setList, n int, withTags bool) error {
	for n > 0 {
		if err := d.need(4, "key"); err != nil {
			return err
		}
		k := min(n, (d.end-d.at)/4)
		b := d.take(4 * k)
		for i := 0; i < len(b); i += 4 {
			l.keys = append(l.keys, Key(binary.LittleEndian.Uint32(b[i:])))
		}
		if withTags {
			l.tags = append(l.tags, make([][]string, k)...)
		}
		n -= k
	}
	return nil
}

// taggedEntries appends a record's n tagged entries to l: each key, and
// with tags its tag set. Without, the tags are skipped: only ExactVerify
// consults them, and a bulk load would otherwise materialize millions of
// short-lived strings.
func (d *snapDecoder) taggedEntries(l *setList, n int, withTags bool) error {
	for range n {
		if err := d.need(6, "key"); err != nil {
			return err
		}
		b := d.take(6)
		l.keys = append(l.keys, Key(binary.LittleEndian.Uint32(b)))
		nTags := int(binary.LittleEndian.Uint16(b[4:]))
		var tags []string
		if withTags {
			tags = make([]string, nTags)
		}
		for j := range nTags {
			if err := d.need(2, "tag length"); err != nil {
				return err
			}
			tl := int(binary.LittleEndian.Uint16(d.take(2)))
			if err := d.need(tl, "tag"); err != nil {
				return err
			}
			if t := d.take(tl); withTags {
				tags[j] = string(t)
			}
		}
		if withTags {
			l.tags = append(l.tags, tags)
		}
	}
	return nil
}
