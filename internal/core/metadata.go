package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// maxSealedSegments bounds how many sealed (pre-fork) WAL segments can be
// outstanding at once. One suffices in normal operation (a single snapshot
// in flight); the extra slots tolerate repeatedly failing snapshots without
// losing log data.
const maxSealedSegments = 4

// metaRecord is SlimIO's durable state: snapshot slot roles and image sizes,
// plus the WAL ring position and segment table. One record fits in (much
// less than) a page; records are written cyclically over the metadata region
// and the highest valid sequence number wins at recovery — making every
// state transition a single atomic page write (§4.2).
type metaRecord struct {
	seq       uint64
	slotRoles [3]slotRole
	slotBytes [3]int64
	// walHead is the ring offset (in pages, relative to the WAL region
	// start) where the oldest live segment begins.
	walHead int64
	// sealedLens[:sealed] are the byte lengths of the sealed segments,
	// oldest first, laid out consecutively (page-aligned) from walHead. A
	// segment sealed empty has length 0 and no pages. The current (open)
	// segment follows them and is recovered by scanning.
	sealedLens [maxSealedSegments]int64
	sealed     int
	// walRetired counts the log generations before the oldest live
	// segment, discarded or renumbered while empty: the oldest live segment
	// is generation walRetired+1 and each rotation adds one (see
	// imdb.Recovered.WALGen).
	walRetired uint64
}

var metaMagic = []byte("SLIMMETA")

const metaRecordSize = 8 /*magic*/ + 8 /*seq*/ + 3 + 3*8 + 8 /*walHead*/ +
	maxSealedSegments*8 + 1 /*sealed*/ + 8 /*retired*/ + 4 /*crc*/

func (m *metaRecord) encode() []byte {
	buf := make([]byte, metaRecordSize)
	copy(buf[0:8], metaMagic)
	binary.LittleEndian.PutUint64(buf[8:16], m.seq)
	off := 16
	for i := 0; i < 3; i++ {
		buf[off] = byte(m.slotRoles[i])
		off++
	}
	for i := 0; i < 3; i++ {
		binary.LittleEndian.PutUint64(buf[off:off+8], uint64(m.slotBytes[i]))
		off += 8
	}
	binary.LittleEndian.PutUint64(buf[off:off+8], uint64(m.walHead))
	off += 8
	for i := 0; i < maxSealedSegments; i++ {
		binary.LittleEndian.PutUint64(buf[off:off+8], uint64(m.sealedLens[i]))
		off += 8
	}
	buf[off] = byte(m.sealed)
	binary.LittleEndian.PutUint64(buf[off+1:off+9], m.walRetired)
	off += 9
	crc := crc32.ChecksumIEEE(buf[:off])
	binary.LittleEndian.PutUint32(buf[off:off+4], crc)
	return buf
}

func decodeMetaRecord(buf []byte) (*metaRecord, error) {
	if len(buf) < metaRecordSize {
		return nil, fmt.Errorf("core: metadata record too short")
	}
	buf = buf[:metaRecordSize]
	for i := range metaMagic {
		if buf[i] != metaMagic[i] {
			return nil, fmt.Errorf("core: bad metadata magic")
		}
	}
	body := metaRecordSize - 4
	want := binary.LittleEndian.Uint32(buf[body:])
	if crc32.ChecksumIEEE(buf[:body]) != want {
		return nil, fmt.Errorf("core: metadata CRC mismatch")
	}
	m := &metaRecord{}
	m.seq = binary.LittleEndian.Uint64(buf[8:16])
	off := 16
	for i := 0; i < 3; i++ {
		m.slotRoles[i] = slotRole(buf[off])
		off++
	}
	for i := 0; i < 3; i++ {
		m.slotBytes[i] = int64(binary.LittleEndian.Uint64(buf[off : off+8]))
		off += 8
	}
	m.walHead = int64(binary.LittleEndian.Uint64(buf[off : off+8]))
	off += 8
	for i := 0; i < maxSealedSegments; i++ {
		m.sealedLens[i] = int64(binary.LittleEndian.Uint64(buf[off : off+8]))
		off += 8
	}
	if m.sealed = int(buf[off]); m.sealed > maxSealedSegments {
		return nil, fmt.Errorf("core: metadata names %d sealed segments", m.sealed)
	}
	m.walRetired = binary.LittleEndian.Uint64(buf[off+1 : off+9])
	return m, nil
}
