package router

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/ics-forth/perseas/internal/core"
	"github.com/ics-forth/perseas/internal/engine"
	"github.com/ics-forth/perseas/internal/netram"
)

// The coordinator's durable state is one small mirrored region on shard
// 0's memory servers, shaped like everything else in PERSEAS: fixed
// slots written with single pushes, checksummed records, and recovery by
// scanning. It holds two things:
//
//   - Decision records: one per in-flight cross-shard commit. The push
//     of a record is that transaction's atomic commit point; the record
//     is zeroed once every participant's commit word landed. Crashing
//     between those two pushes is the window recovery replays.
//   - The placement log: one appended record per completed migration,
//     naming a database's non-hash home (or a tombstone retiring the
//     override when the database is dropped). It makes placement
//     overrides survive a coordinator crash.
const (
	// CoordRegionName is the decision region's segment name on shard 0's
	// mirrors.
	CoordRegionName = "perseas.coord"

	coordMagic      = uint64(0x5045525343524430) // "PERSCRD0"
	coordHeaderSize = 64
	coordSlotSize   = 256
	coordSlots      = 128
	// Per participant: shard u16, undo-slot u16, transaction id u64.
	coordPartSize     = 12
	coordPlacementOff = coordHeaderSize + coordSlots*coordSlotSize
	coordPlacementLen = 32 << 10
	coordSize         = coordPlacementOff + coordPlacementLen

	// MaxParticipants bounds the shards one transaction may touch: what
	// fits a decision slot. 20 shards per transaction is far beyond any
	// genuine workload; transactions touching more must be split.
	MaxParticipants = (coordSlotSize - 10 - 4) / coordPartSize

	// placementTombstone is the shard value of a placement record that
	// retires a database's override: DropDB appends it so a dropped,
	// then recreated database lands back on its hash home after a crash
	// instead of recovery trusting a stale override (and sweeping the
	// live recreated copy as migration garbage). parsePlacements erases
	// the name, so compaction drops the whole history.
	placementTombstone = 0xFFFF
)

var coordCRC = crc32.MakeTable(crc32.Castagnoli)

func coordSlotOff(s int) uint64 { return coordHeaderSize + uint64(s)*coordSlotSize }

func allCoordSlots() []int {
	free := make([]int, coordSlots)
	for i := range free {
		free[i] = i
	}
	return free
}

func writeCoordHeader(buf []byte, shards int) {
	binary.BigEndian.PutUint64(buf[0:], coordMagic)
	binary.BigEndian.PutUint32(buf[8:], uint32(shards))
}

func readCoordHeader(buf []byte) (shards int, err error) {
	if len(buf) < coordHeaderSize {
		return 0, errors.New("router: coordinator region truncated")
	}
	if binary.BigEndian.Uint64(buf[0:]) != coordMagic {
		return 0, errors.New("router: bad coordinator region magic")
	}
	return int(binary.BigEndian.Uint32(buf[8:])), nil
}

// decisionPart names one participant of a decided commit.
type decisionPart struct {
	shard uint16
	slot  uint16
	txid  uint64
}

// decision is one decoded record.
type decision struct {
	gid   uint64
	parts []decisionPart
}

// encodeDecision serialises a record into slot bytes and returns the
// byte count to push:
//
//	[0:8)          global transaction id (0 = free slot)
//	[8:10)         participant count P
//	[10+12i:...)   participant i: shard u16 | undo-slot u16 | txid u64
//	[10+12P:+4)    CRC-32 (Castagnoli) of everything above
func encodeDecision(buf []byte, gid uint64, parts []decisionPart) uint64 {
	binary.BigEndian.PutUint64(buf[0:], gid)
	binary.BigEndian.PutUint16(buf[8:], uint16(len(parts)))
	off := 10
	for _, p := range parts {
		binary.BigEndian.PutUint16(buf[off:], p.shard)
		binary.BigEndian.PutUint16(buf[off+2:], p.slot)
		binary.BigEndian.PutUint64(buf[off+4:], p.txid)
		off += coordPartSize
	}
	crc := crc32.Checksum(buf[:off], coordCRC)
	binary.BigEndian.PutUint32(buf[off:], crc)
	return uint64(off + 4)
}

// parseDecision decodes slot s of a region image. ok is false for free
// slots and for records whose checksum fails (a crash mid-push: the
// decision never became durable, so the transaction aborts).
func parseDecision(local []byte, s int) (decision, bool) {
	off := coordSlotOff(s)
	buf := local[off : off+coordSlotSize]
	gid := binary.BigEndian.Uint64(buf[0:])
	if gid == 0 {
		return decision{}, false
	}
	n := int(binary.BigEndian.Uint16(buf[8:]))
	if n == 0 || n > MaxParticipants {
		return decision{}, false
	}
	end := 10 + n*coordPartSize
	if crc32.Checksum(buf[:end], coordCRC) != binary.BigEndian.Uint32(buf[end:]) {
		return decision{}, false
	}
	dec := decision{gid: gid, parts: make([]decisionPart, n)}
	for i := range dec.parts {
		p := buf[10+i*coordPartSize:]
		dec.parts[i] = decisionPart{
			shard: binary.BigEndian.Uint16(p[0:]),
			slot:  binary.BigEndian.Uint16(p[2:]),
			txid:  binary.BigEndian.Uint64(p[4:]),
		}
	}
	return dec, true
}

// publishDecision allocates a decision slot, encodes the participants
// and pushes the record — the whole transaction's atomic commit point.
func (r *Router) publishDecision(live []*core.Tx, shardIdx []int) (gid uint64, slot int, err error) {
	if len(live) > MaxParticipants {
		return 0, -1, fmt.Errorf("router: transaction touches %d shards, decision record holds %d",
			len(live), MaxParticipants)
	}
	r.mu.Lock()
	if r.crashed || r.coord == nil {
		r.mu.Unlock()
		return 0, -1, engine.ErrCrashed
	}
	if len(r.coordFree) == 0 {
		r.mu.Unlock()
		return 0, -1, errors.New("router: decision slots exhausted; too many cross-shard commits in flight")
	}
	slot = r.coordFree[len(r.coordFree)-1]
	r.coordFree = r.coordFree[:len(r.coordFree)-1]
	r.nextGID++
	gid = r.nextGID
	coord := r.coord
	parts := make([]decisionPart, len(live))
	for i, sub := range live {
		parts[i] = decisionPart{shard: uint16(shardIdx[i]), slot: uint16(sub.Slot()), txid: sub.ID()}
	}
	off := coordSlotOff(slot)
	n := encodeDecision(coord.Local[off:off+coordSlotSize], gid, parts)
	r.mu.Unlock()

	// The decision record is the cross-shard atomic commit point and
	// recovery reads it from whichever coordinator mirror it reaches
	// first, so it must land on all of them even on a quorum client.
	if err := r.nets[0].PushWith(coord, []netram.Range{{Offset: off, Length: n}}, netram.PushOpts{AllAck: true}); err != nil {
		r.mu.Lock()
		r.coordFree = append(r.coordFree, slot)
		r.mu.Unlock()
		return 0, -1, err
	}
	return gid, slot, nil
}

// releaseDecision retires a completed record: the global id zeroes, the
// zero pushes, and the slot returns to the free list. A failed zero push
// leaves a stale record behind, which is harmless — replaying a decision
// whose words already landed is a no-op, and the next occupant of the
// slot overwrites it whole.
func (r *Router) releaseDecision(slot int) {
	r.mu.Lock()
	coord := r.coord
	if coord == nil || r.crashed {
		r.mu.Unlock()
		return
	}
	off := coordSlotOff(slot)
	clear(coord.Local[off : off+8])
	r.mu.Unlock()
	_ = r.nets[0].PushWith(coord, []netram.Range{{Offset: off, Length: 8}}, netram.PushOpts{AllAck: true})
	r.mu.Lock()
	if !r.crashed && r.coord != nil {
		r.coordFree = append(r.coordFree, slot)
	}
	r.mu.Unlock()
}

// appendPlacementLocked appends one placement record and returns the
// range to push. Caller holds r.mu and pushes after unlocking:
//
//	[0:2)    name length n (0 terminates the log)
//	[2:2+n)  database name
//	[2+n:+2) shard u16
//	[4+n:+4) CRC-32 (Castagnoli) of everything above
//
// When the log area fills, it is compacted in place: only the latest
// record per database matters.
func (r *Router) appendPlacementLocked(name string, shard int) (off, n uint64, err error) {
	if r.coord == nil {
		return 0, 0, engine.ErrCrashed
	}
	need := uint64(2 + len(name) + 2 + 4)
	if r.coordCursor+need+2 > coordSize {
		r.compactPlacementsLocked()
		if r.coordCursor+need+2 > coordSize {
			return 0, 0, errors.New("router: placement log full")
		}
		// The compacted log must be republished whole.
		off = coordPlacementOff
		r.encodePlacementLocked(name, shard)
		return off, r.coordCursor - off, nil
	}
	off = r.coordCursor
	r.encodePlacementLocked(name, shard)
	return off, need, nil
}

func (r *Router) encodePlacementLocked(name string, shard int) {
	buf := r.coord.Local[r.coordCursor:]
	binary.BigEndian.PutUint16(buf[0:], uint16(len(name)))
	copy(buf[2:], name)
	binary.BigEndian.PutUint16(buf[2+len(name):], uint16(shard))
	end := 4 + len(name)
	crc := crc32.Checksum(buf[:end], coordCRC)
	binary.BigEndian.PutUint32(buf[end:], crc)
	r.coordCursor += uint64(end + 4)
}

// compactPlacementsLocked rewrites the log with one record per database.
func (r *Router) compactPlacementsLocked() {
	latest, _ := parsePlacements(r.coord.Local)
	clear(r.coord.Local[coordPlacementOff:coordSize])
	r.coordCursor = coordPlacementOff
	for name, shard := range latest {
		r.encodePlacementLocked(name, shard)
	}
}

// parsePlacements scans the log, returning the latest shard per database
// and the append cursor.
func parsePlacements(local []byte) (map[string]int, uint64) {
	out := make(map[string]int)
	cursor := uint64(coordPlacementOff)
	for cursor+2 <= coordSize {
		n := uint64(binary.BigEndian.Uint16(local[cursor:]))
		if n == 0 || cursor+n+8 > coordSize {
			break
		}
		end := cursor + 4 + n
		crc := crc32.Checksum(local[cursor:end], coordCRC)
		if crc != binary.BigEndian.Uint32(local[end:]) {
			// A torn append: the record never became durable, so the
			// migration it describes never completed.
			break
		}
		name := string(local[cursor+2 : cursor+2+n])
		shard := int(binary.BigEndian.Uint16(local[cursor+2+n:]))
		if shard == placementTombstone {
			delete(out, name)
		} else {
			out[name] = shard
		}
		cursor = end + 4
	}
	return out, cursor
}
