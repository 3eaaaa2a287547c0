package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/ics-forth/perseas/internal/flight"
	"github.com/ics-forth/perseas/internal/hostmem"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/obs"
	"github.com/ics-forth/perseas/internal/par"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/trace"
)

// recoveredSlot pairs a reconnected undo-slot region with its committed
// word as read from the recovered metadata region. Under quorum
// recovery, committed is the maximum word any reachable mirror holds
// for the slot and holders lists the mirrors whose metadata snapshot
// held that maximum (empty in all-ack mode). prefix is how many leading
// bytes of the winning mirror's log were adopted into the local image —
// the only bytes the final republish must ship; the tail beyond it is
// zeroed remotely without a payload.
type recoveredSlot struct {
	region    *netram.Region
	committed uint64
	holders   []int
	prefix    uint64
}

// mirrorCopy is one reachable mirror's snapshot of the metadata region,
// taken at the start of a quorum recovery. A crash can leave mirrors at
// different prefixes of the push stream, so no single copy can be
// trusted for the commit words.
type mirrorCopy struct {
	idx int
	buf []byte
}

// fetchMetaCopies snapshots the metadata region from every reachable
// mirror, up to workers at a time. Quorum recovery needs at least n-w+1
// copies: a commit word acked by w of n mirrors is then guaranteed to
// appear in at least one snapshot, so taking the per-slot maximum over
// the copies recovers every quorum-committed word.
func (l *Library) fetchMetaCopies(meta *netram.Region, workers int) ([]mirrorCopy, error) {
	n := l.net.Mirrors()
	w := l.net.Quorum()
	bufs := make([][]byte, n)
	errs := make([]error, n)
	// Unreachable mirrors are expected here — they are why recovery is
	// running — so a fetch failure is recorded per index, never returned,
	// and the remaining mirrors are always tried.
	_ = par.Run(workers, n, func(i int) error {
		data, err := l.net.FetchMirror(i, meta, 0, meta.Size())
		if err != nil {
			errs[i] = err
			return nil
		}
		buf := make([]byte, len(data))
		copy(buf, data)
		bufs[i] = buf
		return nil
	})
	copies := make([]mirrorCopy, 0, n)
	var lastErr error
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		copies = append(copies, mirrorCopy{idx: i, buf: bufs[i]})
	}
	if len(copies) < n-w+1 {
		return nil, fmt.Errorf("perseas: quorum recovery reached %d of %d metadata copies, needs %d to cover every %d-ack commit: %w",
			len(copies), n, n-w+1, w, lastErr)
	}
	return copies, nil
}

// repairOp is one undo slot's staged crash repair. forward means the
// slot's head transaction is committed (its id equals the slot's merged
// commit word, or a coordinator decided it) but may not have reached
// every mirror: its modified ranges are re-fetched from the winner
// mirror and re-published. Otherwise the head transaction is in flight
// and its before-images roll it back. holders counts the mirrors whose
// snapshot held the slot's merged word — because every mirror receives
// the push stream in the same order, holder sets of different commit
// words are nested, so a larger holder set means the word was enqueued
// earlier: sorting forward repairs by descending holder count replays
// committed overlaps in true commit order even when transaction ids
// (assigned at Begin) disagree with it.
type repairOp struct {
	slot    int
	forward bool
	txID    uint64
	winner  int
	holders int
	recs    []undoRecord
}

// repairPlan collects the ranges recovery restored in the local image,
// grouped per database in first-touch order, so each database's mirror
// copy is repaired by one batched publish of its final local bytes.
type repairPlan struct {
	order  []*Database
	ranges map[*Database][]netram.Range
}

// restore installs src as rec's bytes in the local image and plans
// their publish.
func (p *repairPlan) restore(l *Library, byID map[uint32]*Database, rec undoRecord, src []byte) error {
	db, ok := byID[rec.dbID]
	if !ok {
		// The record references a database dropped after the
		// transaction aborted; there is nothing left to restore.
		return nil
	}
	if rec.offset > db.Size() || rec.length > db.Size()-rec.offset {
		return fmt.Errorf("perseas: undo record outside database %q", db.name)
	}
	l.mem.Copy(l.clock, db.region.Local[rec.offset:rec.offset+rec.length], src)
	if p.ranges == nil {
		p.ranges = make(map[*Database][]netram.Range)
	}
	if _, ok := p.ranges[db]; !ok {
		p.order = append(p.order, db)
	}
	p.ranges[db] = append(p.ranges[db], netram.Range{Offset: rec.offset, Length: rec.length})
	return nil
}

// publish ships each planned database's ranges through push, up to
// workers databases at a time.
func (p *repairPlan) publish(workers int, push func(*netram.Region, []netram.Range) error) error {
	return par.Run(workers, len(p.order), func(i int) error {
		db := p.order[i]
		if err := push(db.region, p.ranges[db]); err != nil {
			return fmt.Errorf("perseas: repair mirror of %q: %w", db.name, err)
		}
		return nil
	})
}

// scanMirrorUndoLog parses mirror m's copy of an undo-slot region
// without touching the region's local buffer, fetching lazily in
// chunks. The buffer grows with the fetched prefix instead of being
// sized for the whole region up front, so scanning every holder of
// every slot allocates proportionally to the records actually written,
// not mirrors × slots × region size. The returned records alias buf;
// fetched is how many leading bytes of the mirror's log were
// materialised.
func (l *Library) scanMirrorUndoLog(m int, region *netram.Region, committed uint64) (recs []undoRecord, buf []byte, fetched uint64, err error) {
	size := region.Size()
	ensure := func(n uint64) ([]byte, error) {
		if n > size {
			n = size
		}
		if n <= fetched {
			return buf, nil
		}
		target := (n + undoChunk - 1) / undoChunk * undoChunk
		if target > size {
			target = size
		}
		if uint64(len(buf)) < target {
			grow := uint64(2 * len(buf))
			if grow < target {
				grow = target
			}
			if grow > size {
				grow = size
			}
			grown := make([]byte, grow)
			copy(grown, buf[:fetched])
			buf = grown
		}
		data, ferr := l.net.FetchMirror(m, region, fetched, target-fetched)
		if ferr != nil {
			return nil, fmt.Errorf("perseas: fetch undo log from mirror %d: %w", m, ferr)
		}
		copy(buf[fetched:], data)
		fetched = target
		return buf, nil
	}
	recs, err = scanUndoLogLazy(committed, size, ensure)
	return recs, buf, fetched, err
}

// planSlotRepair decides how quorum recovery settles undo slot k. Every
// mirror receives the slot's pushes in enqueue order, so each mirror's
// log is a prefix of the slot's true record sequence; the scan with the
// lowest threshold that still admits the head transaction (word-1)
// makes a committed-but-possibly-lagging head visible. Among the
// slot's word holders the log with the highest head id, then the most
// records, is the longest prefix — it contains every record that has
// data anywhere. Its bytes become the local view of the slot; the
// returned prefix is how many of them were materialised, which is all
// the final republish needs to ship.
func (l *Library) planSlotRepair(k int, rs recoveredSlot) (*repairOp, uint64, error) {
	threshold := rs.committed
	if threshold > 0 {
		threshold--
	}
	bestN := -1
	var bestHead, bestFetched uint64
	var bestWinner int
	var bestRecs []undoRecord
	var bestBuf []byte
	var lastErr error
	for _, m := range rs.holders {
		recs, buf, fetched, err := l.scanMirrorUndoLog(m, rs.region, threshold)
		if err != nil {
			lastErr = err
			continue
		}
		head := uint64(0)
		if len(recs) > 0 {
			head = recs[0].txID
		}
		if bestN < 0 || head > bestHead || (head == bestHead && len(recs) > bestN) {
			bestHead, bestN, bestWinner = head, len(recs), m
			bestRecs, bestBuf, bestFetched = recs, buf, fetched
		}
	}
	if bestN < 0 {
		return nil, 0, fmt.Errorf("perseas: undo slot %d unreadable on every quorum-current mirror: %w", k, lastErr)
	}
	copy(rs.region.Local[:bestFetched], bestBuf[:bestFetched])
	if bestN == 0 {
		return nil, bestFetched, nil
	}
	return &repairOp{
		slot:    k,
		forward: bestHead == rs.committed,
		txID:    bestHead,
		winner:  bestWinner,
		holders: len(rs.holders),
		recs:    bestRecs,
	}, bestFetched, nil
}

// lazyFetcher returns an ensure(n) callback that materialises region
// bytes [0,n) on demand, chunk by chunk: most crashes leave only a
// handful of records per slot, so recovery transfers kilobytes, not the
// whole undo region.
func (l *Library) lazyFetcher(region *netram.Region) func(uint64) ([]byte, error) {
	var fetched uint64
	return func(n uint64) ([]byte, error) {
		if n > region.Size() {
			n = region.Size()
		}
		if n <= fetched {
			return region.Local, nil
		}
		target := (n + undoChunk - 1) / undoChunk * undoChunk
		if target > region.Size() {
			target = region.Size()
		}
		if err := l.net.FetchInto(region, fetched, target-fetched); err != nil {
			return nil, fmt.Errorf("perseas: fetch undo log: %w", err)
		}
		fetched = target
		return region.Local, nil
	}
}

// mergeSlotWord settles slot k's commit word after the crash. All-ack
// mode trusts the fetched metadata copy. Quorum mode merges the word
// across the mirror snapshots by maximum — a commit acked by w mirrors
// is on at least one snapshot — and republishes it if any mirror
// lagged; the returned holders are the mirrors whose snapshot held the
// winning word. A coordinator decision that outranks the merged word is
// published the same way, so the decided transaction counts as
// committed on this shard instead of being rolled back.
func (l *Library) mergeSlotWord(meta *netram.Region, k int, committed0 uint64, q int, metaCopies []mirrorCopy, decided map[int]uint64) (uint64, []int, error) {
	word := committed0
	if k > 0 {
		word = binary.BigEndian.Uint64(meta.Local[slotWordOffset(meta.Size(), k):])
	}
	var holders []int
	if q > 0 {
		// Merge the slot's word across the snapshots: a commit that
		// reached its quorum is on at least one of them. Mirrors
		// holding the maximum are the slot's repair candidates — the
		// word is enqueued after the head transaction's records and
		// data, so a word holder has all of them.
		wordOff := slotWordOffset(meta.Size(), k)
		merged := word
		for _, mc := range metaCopies {
			if w := binary.BigEndian.Uint64(mc.buf[wordOff:]); w > merged {
				merged = w
			}
		}
		stale := false
		for _, mc := range metaCopies {
			if binary.BigEndian.Uint64(mc.buf[wordOff:]) == merged {
				holders = append(holders, mc.idx)
			} else {
				stale = true
			}
		}
		if len(holders) == 0 {
			for _, mc := range metaCopies {
				holders = append(holders, mc.idx)
			}
		}
		if merged != word || stale {
			binary.BigEndian.PutUint64(meta.Local[wordOff:], merged)
			if err := l.net.PushWith(meta, []netram.Range{{Offset: wordOff, Length: 8}}, netram.PushOpts{AllAck: true}); err != nil {
				return 0, nil, fmt.Errorf("perseas: republish commit word of slot %d: %w", k, err)
			}
			word = merged
		}
	}
	if d := decided[k]; d > word {
		// The coordinator decided this slot's head transaction
		// committed but the crash beat the word push. Publish the
		// word now, before the rollback scan, so the scan treats the
		// transaction's records as committed.
		wordOff := slotWordOffset(meta.Size(), k)
		binary.BigEndian.PutUint64(meta.Local[wordOff:], d)
		if err := l.net.PushWith(meta, []netram.Range{{Offset: wordOff, Length: 8}}, netram.PushOpts{AllAck: true}); err != nil {
			return 0, nil, fmt.Errorf("perseas: publish decided commit word: %w", err)
		}
		word = d
		if q > 0 {
			// No snapshot holds the decided word, but the prepared
			// data behind a decision is always pushed fully acked,
			// so any reachable mirror can serve the repair.
			holders = holders[:0]
			for _, mc := range metaCopies {
				holders = append(holders, mc.idx)
			}
		}
	}
	return word, holders, nil
}

// recoveryStep runs one recovery phase under a trace span, a phase
// histogram, and a flight-recorder event. The clock is only read, never
// advanced, so instrumented recovery reports the same modelled time as
// the bare procedure.
func (l *Library) recoveryStep(root trace.InfraSpan, workers int, name string, h *obs.Histogram, fn func() error) error {
	l.flightRec.Record(flight.RecoveryPhase, "core", name, uint64(workers))
	sp := root.Child(trace.LayerCore, name)
	start := l.clock.Now()
	err := fn()
	h.ObserveDuration(l.clock.Now() - start)
	sp.End()
	return err
}

// Recover implements engine.Engine: the paper's Section 3/4 recovery
// procedure, run after the primary node crashed and lost its main memory.
//
// The library first reconnects to the segments holding the PERSEAS
// metadata (the paper's sci_connect_segment); from those it retrieves the
// information needed to find and reconnect to the remote database records
// and the remote undo logs. Undo slots beyond the paper's slot 0 are
// discovered by probing their derived segment names until one is missing.
// Each slot is then handled exactly as the paper handles its single log:
// if the slot's head transaction had started propagating modifications
// before the failure (its records are newer than the slot's commit word),
// the original data found in the remote undo log are copied back to the
// remote database, discarding the illegal updates; the local database is
// then recovered from the — now legal — remote segments. Concurrent
// transactions hold disjoint ranges, so the rollback order across slots
// does not matter — which is also what lets WithRecoveryParallelism
// scan and roll back slots concurrently without changing the outcome.
func (l *Library) Recover() error {
	return l.RecoverWithDecisions(nil)
}

// RecoverWithDecisions is Recover plus a coordinator's verdicts: decided
// maps an undo-slot index to a transaction id a cross-shard coordinator
// recorded as committed. A decided id that outranks the slot's recovered
// commit word means the commit-word push lost a race with the crash
// after the decision became durable; recovery publishes the word itself
// before the rollback scan, so the transaction's records count as
// committed on this shard instead of being rolled back. Stale decisions
// (id not above the recovered word) are no-ops, so replaying an old
// decision record is always safe.
func (l *Library) RecoverWithDecisions(decided map[int]uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.crashed {
		return fmt.Errorf("perseas: recover called on a running library")
	}
	workers := l.recoveryWorkers
	if workers < 1 {
		workers = 1
	}
	root := l.tracer.Start(trace.LayerCore, "recover")
	start := l.clock.Now()
	if err := l.recoverLocked(root, workers, decided); err != nil {
		l.flightRec.Record(flight.RecoveryPhase, "core", "failed", uint64(workers))
		root.End()
		return err
	}
	l.recMetrics.RecoverTotal.ObserveDuration(l.clock.Now() - start)
	l.flightRec.Record(flight.RecoveryPhase, "core", "complete", uint64(workers))
	root.EndN(uint64(workers))
	return nil
}

// recoverLocked is the recovery procedure proper, split into phases.
// Each phase has one code path: the units that are independent —
// metadata snapshots, slot reconnects and scans, database fetches,
// repair publishes — run through a bounded worker pool (par.Run) of
// workers goroutines, and database fetches additionally stripe read
// chunks across the surviving mirrors. workers == 1 is the pool's
// inline case: every unit runs on the caller's goroutine in index
// order and the first error stops the phase. The recovered state is
// byte-identical at every parallelism: slots hold disjoint ranges,
// staged repairs apply serially in commit order, and batched publishes
// ship the same final local bytes per-record pushes would.
func (l *Library) recoverLocked(root trace.InfraSpan, workers int, decided map[int]uint64) error {
	q := l.net.Quorum()

	// Phase 1: reconnect the metadata region, fetch the directory, and —
	// under quorum — snapshot the metadata from every reachable mirror.
	var (
		meta         *netram.Region
		committed0   uint64
		undoSize     uint64
		storedNextID uint32
		entries      []dirEntry
		metaCopies   []mirrorCopy
	)
	err := l.recoveryStep(root, workers, "meta_fetch", &l.recMetrics.MetaFetch, func() error {
		var err error
		meta, err = l.net.Connect(l.qualify(metaRegionName))
		if err != nil {
			return fmt.Errorf("perseas: reconnect metadata: %w", err)
		}
		if err := l.net.FetchInto(meta, 0, meta.Size()); err != nil {
			return fmt.Errorf("perseas: fetch metadata: %w", err)
		}
		committed0, undoSize, storedNextID, entries, err = readDirectory(meta.Local)
		if err != nil {
			return err
		}
		if q > 0 {
			// Quorum mode: the commit words on the fetched copy may lag
			// other mirrors, so snapshot the metadata from every
			// reachable mirror and merge each slot's word by maximum
			// later. The directory itself is always pushed fully acked,
			// so the base copy is authoritative for everything but the
			// words.
			metaCopies, err = l.fetchMetaCopies(meta, workers)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Phase 2: reconnect every undo slot and settle its commit word.
	// Slot 0 always exists; further slots were allocated on demand by
	// past concurrency and are found by name: the connected prefix of
	// the possible slot names is the slot set (at one worker the probe
	// stops at the first missing name). Word settlement stays serial at
	// every parallelism — it is a handful of 8-byte writes and its
	// meta.Local updates must not race.
	recovered := []recoveredSlot{}
	err = l.recoveryStep(root, workers, "slot_connect", &l.recMetrics.SlotConnect, func() error {
		names := make([]string, maxUndoSlots)
		for k := range names {
			names[k] = l.qualify(undoSlotName(k))
		}
		regions, cerr := l.net.ConnectMany(names, workers)
		if len(regions) == 0 {
			return fmt.Errorf("perseas: reconnect undo log: %w", cerr)
		}
		for k, region := range regions {
			if region.Size() != undoSize {
				return fmt.Errorf("perseas: undo slot %d size %d does not match metadata %d",
					k, region.Size(), undoSize)
			}
			word, holders, err := l.mergeSlotWord(meta, k, committed0, q, metaCopies, decided)
			if err != nil {
				return err
			}
			recovered = append(recovered, recoveredSlot{region: region, committed: word, holders: holders})
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Phase 3: reconnect every database record and copy it back. The
	// regions reconnect through the pool and each image is fetched in
	// read-chunk stripes spread round-robin across the surviving
	// mirrors, so at parallelism the transfer rides their aggregate
	// bandwidth (at one worker the fetch is a plain FetchInto). Striping
	// is safe mid-recovery: replicas can only disagree on bytes of some
	// slot's head transaction, and exactly those ranges are rolled back
	// or repaired after the fetch.
	dbs := make(map[string]*Database, len(entries))
	byID := make(map[uint32]*Database, len(entries))
	var maxID uint32
	err = l.recoveryStep(root, workers, "db_fetch", &l.recMetrics.DBFetch, func() error {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = l.qualify(dbRegionPrefix + e.name)
		}
		regions, cerr := l.net.ConnectMany(names, workers)
		if cerr != nil {
			return fmt.Errorf("perseas: reconnect database %q: %w", entries[len(regions)].name, cerr)
		}
		for i, region := range regions {
			if region.Size() != entries[i].size {
				return fmt.Errorf("perseas: database %q size %d does not match directory %d",
					entries[i].name, region.Size(), entries[i].size)
			}
		}
		if err := par.Run(workers, len(entries), func(i int) error {
			if err := l.net.FetchIntoStriped(regions[i], workers); err != nil {
				return fmt.Errorf("perseas: fetch database %q: %w", entries[i].name, err)
			}
			return nil
		}); err != nil {
			return err
		}
		for i, e := range entries {
			db := &Database{id: e.id, name: e.name, region: regions[i]}
			dbs[e.name] = db
			byID[e.id] = db
			if e.id > maxID {
				maxID = e.id
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Phase 4: scan each slot's remote undo log for its head
	// transaction's records. Slots hold disjoint ranges and each scan
	// touches only its own region, so the scans are independent; the
	// aggregation below runs in slot order either way, keeping the
	// repair list and the id re-seed deterministic. The largest id seen
	// anywhere — commit words and log records — re-seeds the
	// transaction-id counter.
	committed := uint64(0)
	lastTxID := uint64(0)
	slotRecs := make([][]undoRecord, len(recovered))
	type slotScan struct {
		recs   []undoRecord
		op     *repairOp
		prefix uint64
	}
	scans := make([]slotScan, len(recovered))
	var repairs []repairOp
	err = l.recoveryStep(root, workers, "slot_scan", &l.recMetrics.SlotScan, func() error {
		if err := par.Run(workers, len(recovered), func(k int) error {
			rs := recovered[k]
			if q > 0 {
				op, prefix, err := l.planSlotRepair(k, rs)
				if err != nil {
					return err
				}
				scans[k] = slotScan{op: op, prefix: prefix}
				return nil
			}
			recs, err := scanUndoLogLazy(rs.committed, rs.region.Size(), l.lazyFetcher(rs.region))
			if err != nil {
				return err
			}
			scans[k] = slotScan{recs: recs}
			return nil
		}); err != nil {
			return err
		}
		for k := range recovered {
			rs := &recovered[k]
			if rs.committed > committed {
				committed = rs.committed
			}
			if rs.committed > lastTxID {
				lastTxID = rs.committed
			}
			recs := scans[k].recs
			if q > 0 {
				rs.prefix = scans[k].prefix
				if op := scans[k].op; op != nil {
					repairs = append(repairs, *op)
					recs = op.recs
				}
			} else {
				slotRecs[k] = recs
			}
			for _, rec := range recs {
				if rec.txID > lastTxID {
					lastTxID = rec.txID
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	l.metaSize = meta.Size()
	l.undoSize = undoSize
	l.metaMu.Lock()
	l.meta = meta
	l.metaMu.Unlock()
	l.slots = make([]*undoSlot, len(recovered))
	for k, rs := range recovered {
		l.slots[k] = &undoSlot{
			idx:       k,
			region:    rs.region,
			wordOff:   slotWordOffset(meta.Size(), k),
			committed: rs.committed,
		}
	}
	l.dbs = dbs
	l.byID = byID
	l.nextDBID = maxID + 1
	if storedNextID > l.nextDBID {
		// Ids of dropped databases stay retired so no stale undo record
		// can ever alias a database created after this recovery.
		l.nextDBID = storedNextID
	}
	l.dirEnd = directoryEnd(entries)

	// Phase 5: roll back each slot's in-flight transaction, newest
	// record first: restore each before-image locally, slot by slot, and
	// repair the mirror copy with one batched publish of the final local
	// bytes per database — ranges within a transaction may overlap, but
	// every publish then ships the same fully-restored bytes per-record
	// pushes would have converged on.
	err = l.recoveryStep(root, workers, "rollback", &l.recMetrics.Rollback, func() error {
		var plan repairPlan
		for _, recs := range slotRecs {
			for i := len(recs) - 1; i >= 0; i-- {
				if err := plan.restore(l, byID, recs[i], recs[i].data); err != nil {
					return err
				}
			}
		}
		return plan.publish(workers, l.net.PushMany)
	})
	if err != nil {
		return err
	}

	// Phase 6: quorum repairs are staged against the local image first
	// and published only afterwards: writes to the mirrors begin only
	// after every winner's bytes were fetched, so one slot's repair can
	// never clobber bytes another slot still needs to read. Forward
	// repairs apply in commit order (descending holder count — see
	// repairOp); rollbacks apply last, because an in-flight claim is
	// always the newest writer of its bytes. The winner fetches run
	// through the pool up front (the mirrors are untouched until
	// publish, so the bytes read are the same as fetching in apply
	// order), the local applies keep their serial commit order, and the
	// publishes batch per database.
	if len(repairs) > 0 {
		err = l.recoveryStep(root, workers, "quorum_repair", &l.recMetrics.Repair, func() error {
			sort.SliceStable(repairs, func(i, j int) bool {
				a, b := repairs[i], repairs[j]
				if a.forward != b.forward {
					return a.forward
				}
				return a.forward && a.holders > b.holders
			})
			// Prefetch every forward repair's winner bytes. Records with
			// a dropped database or bad bounds are skipped here; the
			// serial apply loop below reports them.
			type fetchJob struct{ op, rec int }
			var jobs []fetchJob
			pre := make([][][]byte, len(repairs))
			for i := range repairs {
				op := &repairs[i]
				if !op.forward {
					continue
				}
				pre[i] = make([][]byte, len(op.recs))
				for j, rec := range op.recs {
					db, ok := byID[rec.dbID]
					if !ok {
						continue
					}
					if rec.offset > db.Size() || rec.length > db.Size()-rec.offset {
						continue
					}
					jobs = append(jobs, fetchJob{op: i, rec: j})
				}
			}
			if err := par.Run(workers, len(jobs), func(n int) error {
				j := jobs[n]
				op := &repairs[j.op]
				rec := op.recs[j.rec]
				db := byID[rec.dbID]
				data, err := l.net.FetchMirror(op.winner, db.region, rec.offset, rec.length)
				if err != nil {
					return fmt.Errorf("perseas: re-fetch committed range of %q: %w", db.name, err)
				}
				buf := make([]byte, len(data))
				copy(buf, data)
				pre[j.op][j.rec] = buf
				return nil
			}); err != nil {
				return err
			}
			var plan repairPlan
			for i := range repairs {
				op := &repairs[i]
				for j := len(op.recs) - 1; j >= 0; j-- {
					src := op.recs[j].data
					if op.forward {
						src = pre[i][j]
					}
					if err := plan.restore(l, byID, op.recs[j], src); err != nil {
						return err
					}
				}
			}
			return plan.publish(workers, func(r *netram.Region, rs []netram.Range) error {
				return l.net.PushWith(r, rs, netram.PushOpts{AllAck: true})
			})
		})
		if err != nil {
			return err
		}
	}

	// Phase 7: quorum recovery adopted each slot's winning undo log as
	// the local image; republish it so every mirror's copy — including
	// one that missed straggler writes entirely — is byte-identical
	// before the region set is readable. Only the materialised prefix
	// ships as payload; the tail beyond the winner's records must be
	// zeros everywhere (a future scan treats zeros as log end, and stale
	// divergent tails must not survive into the next crash's winner
	// election), so it is cleared remotely without shipping a payload of
	// zeroes.
	if q > 0 {
		err = l.recoveryStep(root, workers, "undo_republish", &l.recMetrics.Republish, func() error {
			return par.Run(workers, len(recovered), func(k int) error {
				rs := recovered[k]
				if rs.prefix > 0 {
					if err := l.net.PushWith(rs.region, []netram.Range{{Length: rs.prefix}}, netram.PushOpts{AllAck: true}); err != nil {
						return fmt.Errorf("perseas: republish undo log: %w", err)
					}
				}
				if rs.prefix < rs.region.Size() {
					if err := l.net.ZeroRangeAcked(rs.region, rs.prefix, rs.region.Size()-rs.prefix); err != nil {
						return fmt.Errorf("perseas: republish undo log: %w", err)
					}
				}
				return nil
			})
		})
		if err != nil {
			return err
		}
	}

	l.committed = committed
	l.lastTxID = lastTxID
	l.txs = make(map[*Tx]struct{})
	l.locks = newConflictTable()
	l.crashed = false
	l.stats.Recoveries++
	return nil
}

// Attach builds a Library on a node that did not create the database —
// either the restarted primary or any other workstation taking over after
// a failure (the paper stresses that mirrored data are accessible from
// any node, so recovery "can be started right-away in any available
// workstation"). It runs the full recovery procedure before returning.
func Attach(net *netram.Client, clock simclock.Clock, opts ...Option) (*Library, error) {
	l := &Library{
		net:     net,
		mem:     hostmem.Default(),
		clock:   clock,
		crashed: true,
		txs:     make(map[*Tx]struct{}),
		locks:   newConflictTable(),
	}
	for _, o := range opts {
		o(l)
	}
	net.SetClock(clock)
	l.tracer.SetClock(clock)
	if err := l.Recover(); err != nil {
		return nil, err
	}
	return l, nil
}
