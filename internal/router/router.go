// Package router shards the PERSEAS region namespace across N
// independent library instances and fronts them with the same
// engine.Engine contract, so benchmarks, stress drivers and applications
// run unchanged against 1 or many shards.
//
// Each shard is a complete PERSEAS instance — its own mirror set,
// conflict table, undo-log arena, metadata region and (in full rigs)
// guardian — so aggregate write throughput and database capacity scale
// with the shard count instead of being bounded by a single node's
// mirror link. A database lives wholly on one shard, placed by a hash of
// its name (with migration overrides); SetRange routes to the owning
// shard's conflict table and undo log.
//
// Transactions that touch a single shard — the common case — commit
// through that shard's unchanged one-word commit path; the router adds
// no network traffic, no extra clock reads and no trace spans, which is
// what keeps 1-shard figure reproductions byte-identical to the bare
// library. Transactions that touch several shards follow the genuineness
// rule of partial replication: only the touched shards participate.
// Their commit is coordinator-driven:
//
//  1. Prepare, in parallel on every participant: undo records are
//     already mirrored by SetRange; Prepare pushes the modified database
//     ranges (each shard's pushes ride its own mirror fan-out workers)
//     and leaves the commit word unpublished.
//  2. Decide: the coordinator writes one decision record — global id
//     plus every participant's (shard, undo-slot, transaction id) — into
//     its mirrored decision region. The push of that record is the
//     atomic commit point of the whole transaction.
//  3. Complete, in parallel: each participant publishes its own commit
//     word, exactly the one small write an ordinary commit ends with.
//
// If the coordinator dies before step 2, no decision exists and every
// shard's standard recovery rolls the prepared transaction back from its
// remote undo log. If it dies after step 2, recovery replays the
// decision: each named slot's commit word is forced up to the decided id
// before the rollback scan, so the transaction commits everywhere. A
// completed decision record is zeroed; replaying a stale record is a
// no-op because commit words only move forward.
package router

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"github.com/ics-forth/perseas/internal/core"
	"github.com/ics-forth/perseas/internal/engine"
	"github.com/ics-forth/perseas/internal/fault"
	"github.com/ics-forth/perseas/internal/flight"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/obs"
)

// Stats counts router activity.
type Stats struct {
	// SingleShardCommits took a shard's unchanged commit path.
	SingleShardCommits uint64
	// CrossShardCommits went through the prepare/decide/complete
	// protocol.
	CrossShardCommits uint64
	// CrossShardAborts are cross-shard transactions rolled back after a
	// failed prepare or decision push.
	CrossShardAborts uint64
	// DecisionsReplayed counts decision records recovery finished on
	// behalf of a dead coordinator.
	DecisionsReplayed uint64
	// CompletionsRepaired counts decided commits whose failed word
	// pushes RepairInDoubt finished on the live system.
	CompletionsRepaired uint64
	// Migrations counts completed online database moves.
	Migrations uint64
}

// metrics is Stats as lock-free counters.
type metrics struct {
	single, cross, crossAborts, replayed, repaired, migrations obs.Counter
}

// Router fronts the shard set. It implements engine.Engine.
type Router struct {
	shards []*core.Library
	nets   []*netram.Client

	// mu guards the placement map, wrapper cache, coordinator region
	// bookkeeping and the crashed flag. It is never held across network
	// pushes on the commit path.
	mu     sync.Mutex
	placed map[string]int // placement overrides + created databases
	// overridden marks names with a durable placement record in the
	// coordinator log; DropDB must retire that record with a tombstone
	// or recovery routes the name to a shard it no longer lives on.
	overridden map[string]bool
	dbs        map[string]*DB // live wrappers by name
	migrations map[string]*migration
	// indoubt holds decided cross-shard commits whose commit-word push
	// failed transiently; RepairInDoubt re-drives them so their shards'
	// claims, undo slots and decision records free up without a crash.
	indoubt []indoubtCommit
	crashed bool
	// gen increments on every crash; handles from an older generation
	// are retired, like the library's retireAllLocked.
	gen uint64

	// Coordinator decision region state (nil / empty at 1 shard, where
	// no cross-shard transaction can exist).
	coord       *netram.Region
	coordFree   []int
	coordCursor uint64
	nextGID     uint64

	metrics metrics
	// flight records in-doubt commit repairs; nil disables. Set during
	// wiring, before traffic flows.
	flight *flight.Recorder

	// Test hooks, fired on the committing goroutine between protocol
	// phases (and on the migrating goroutine before the final quiesce);
	// nil outside white-box crash-schedule tests.
	hookAfterPrepare  func()
	hookAfterDecision func()
	hookBeforeQuiesce func()
}

// New builds a router over pre-wired shard libraries. With more than one
// shard it allocates the coordinator decision region on shard 0's mirror
// set; at exactly one shard the router is a pure pass-through wrapper
// and touches nothing.
func New(shards []*core.Library) (*Router, error) {
	if len(shards) == 0 {
		return nil, errors.New("router: need at least one shard")
	}
	r := &Router{
		shards:     shards,
		nets:       make([]*netram.Client, len(shards)),
		placed:     make(map[string]int),
		overridden: make(map[string]bool),
		dbs:        make(map[string]*DB),
		migrations: make(map[string]*migration),
	}
	for i, lib := range shards {
		r.nets[i] = lib.Net()
	}
	if len(shards) > 1 {
		coord, err := r.nets[0].Malloc(CoordRegionName, coordSize)
		if err != nil {
			return nil, fmt.Errorf("router: allocate coordinator region: %w", err)
		}
		writeCoordHeader(coord.Local, len(shards))
		if err := r.nets[0].PushWith(coord, []netram.Range{{Length: coordHeaderSize}}, netram.PushOpts{AllAck: true}); err != nil {
			return nil, fmt.Errorf("router: publish coordinator header: %w", err)
		}
		r.coord = coord
		r.coordFree = allCoordSlots()
		r.coordCursor = coordPlacementOff
	}
	return r, nil
}

// Name implements engine.Engine. The router presents as PERSEAS: it is a
// deployment topology, not a different engine.
func (r *Router) Name() string { return "perseas" }

// Shards reports the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// Shard exposes shard i's library, for tests and tooling.
func (r *Router) Shard(i int) *core.Library { return r.shards[i] }

// ShardFor reports which shard a database with the given name lives on
// (or would be created on).
func (r *Router) ShardFor(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.homeShardLocked(name)
}

// homeShardLocked resolves a name to its shard: a migration override if
// one exists, otherwise the FNV-1a hash of the name. Caller holds r.mu.
func (r *Router) homeShardLocked(name string) int {
	if s, ok := r.placed[name]; ok {
		return s
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	return int(h.Sum32() % uint32(len(r.shards)))
}

// CreateDB implements engine.Engine: the database is created on its home
// shard and wrapped with routing identity.
func (r *Router) CreateDB(name string, size uint64) (engine.DB, error) {
	r.mu.Lock()
	if r.crashed {
		r.mu.Unlock()
		return nil, engine.ErrCrashed
	}
	shard := r.homeShardLocked(name)
	r.mu.Unlock()
	inner, err := r.shards[shard].CreateDB(name, size)
	if err != nil {
		return nil, err
	}
	d := &DB{r: r, name: name, shard: shard, inner: inner}
	r.mu.Lock()
	r.placed[name] = shard
	r.dbs[name] = d
	r.mu.Unlock()
	return d, nil
}

// InitDB implements engine.Engine.
func (r *Router) InitDB(db engine.DB) error {
	d, ok := db.(*DB)
	if !ok || d.r != r {
		return fmt.Errorf("router: foreign DB handle %T", db)
	}
	r.mu.Lock()
	if r.crashed {
		r.mu.Unlock()
		return engine.ErrCrashed
	}
	shard, inner := d.shard, d.inner
	r.mu.Unlock()
	return r.shards[shard].InitDB(inner)
}

// OpenDB implements engine.Engine.
func (r *Router) OpenDB(name string) (engine.DB, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.crashed {
		return nil, engine.ErrCrashed
	}
	if d, ok := r.dbs[name]; ok {
		return d, nil
	}
	shard := r.homeShardLocked(name)
	inner, err := r.shards[shard].OpenDB(name)
	if err != nil {
		return nil, err
	}
	d := &DB{r: r, name: name, shard: shard, inner: inner}
	r.dbs[name] = d
	return d, nil
}

// DropDB removes a database from its shard. Like the library's DropDB it
// requires that shard to be between transactions. Dropping a migrated
// database also retires its durable placement override with a tombstone
// record, so a later recreation lands on its hash home both live and
// after a crash — without the tombstone, recovery would rebuild the
// stale override and its stale-copy sweep would destroy the recreated
// database. Like the library's own DropDB, a drop must not race a
// CreateDB of the same name.
func (r *Router) DropDB(name string) error {
	r.mu.Lock()
	if r.crashed {
		r.mu.Unlock()
		return engine.ErrCrashed
	}
	if r.migrations[name] != nil {
		r.mu.Unlock()
		return fmt.Errorf("router: database %q is migrating", name)
	}
	shard := r.homeShardLocked(name)
	overridden := r.overridden[name]
	r.mu.Unlock()
	if err := r.shards[shard].DropDB(name); err != nil {
		// A retry after an earlier failed tombstone push finds the copy
		// already gone; the override still needs retiring below.
		if !(overridden && errors.Is(err, core.ErrNoSuchDB)) {
			return err
		}
	}
	r.mu.Lock()
	delete(r.dbs, name)
	if !overridden {
		delete(r.placed, name)
		r.mu.Unlock()
		return nil
	}
	if r.crashed || r.coord == nil {
		r.mu.Unlock()
		return engine.ErrCrashed
	}
	coord := r.coord
	off, n, err := r.appendPlacementLocked(name, placementTombstone)
	if err != nil {
		r.mu.Unlock()
		return fmt.Errorf("router: retire placement of %q: %w", name, err)
	}
	r.mu.Unlock()
	if err := r.nets[0].PushWith(coord, []netram.Range{{Offset: off, Length: n}}, netram.PushOpts{AllAck: true}); err != nil {
		// The override record is still durable; r.placed keeps the name
		// pinned to it so live routing and a recovery agree (a recreation
		// lands back on the override shard). Retrying DropDB clears it.
		return fmt.Errorf("router: retire placement of %q: %w", name, err)
	}
	r.mu.Lock()
	delete(r.placed, name)
	delete(r.overridden, name)
	r.mu.Unlock()
	return nil
}

// Begin implements engine.Engine. The handle begins a sub-transaction on
// a shard the first time SetRange touches it — the genuineness rule:
// shards a transaction does not touch take no part in its commit.
func (r *Router) Begin() (engine.Tx, error) {
	return r.BeginTraced(0, 0)
}

// BeginTraced implements engine.TraceBeginner: the handle remembers the
// propagated tracing context and passes it to each shard
// sub-transaction it lazily begins.
func (r *Router) BeginTraced(traceID, parentSpan uint64) (engine.Tx, error) {
	r.mu.Lock()
	crashed, gen := r.crashed, r.gen
	r.mu.Unlock()
	if crashed {
		return nil, engine.ErrCrashed
	}
	return &routerTx{
		r: r, gen: gen, subs: make([]*core.Tx, len(r.shards)),
		traceID: traceID, traceSpan: parentSpan,
	}, nil
}

// Crash implements engine.Engine: the routing node and every shard
// primary fail together. Only the shards' mirror sets (and the mirrored
// decision region) survive.
func (r *Router) Crash(kind fault.CrashKind) error {
	r.mu.Lock()
	r.crashed = true
	r.gen++
	r.coord = nil
	r.coordFree = nil
	r.dbs = make(map[string]*DB)
	r.migrations = make(map[string]*migration)
	// In-doubt completions die with the node; recovery finishes them
	// from their decision records.
	r.indoubt = nil
	r.mu.Unlock()
	for _, lib := range r.shards {
		_ = lib.Crash(kind)
	}
	return nil
}

// Recover implements engine.Engine. Order matters: the decision region
// is read first, so each shard's recovery can finish decided commits
// whose word pushes the crash swallowed; then stale copies left by an
// interrupted migration are dropped and placement is rebuilt.
func (r *Router) Recover() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.crashed {
		return errors.New("router: recover called on a running router")
	}

	decisions := make([]map[int]uint64, len(r.shards))
	var replayed []int
	overrides := make(map[string]int)
	var coord *netram.Region
	if len(r.shards) > 1 {
		var err error
		coord, err = r.nets[0].Connect(CoordRegionName)
		if err != nil {
			return fmt.Errorf("router: reconnect coordinator region: %w", err)
		}
		if err := r.nets[0].FetchInto(coord, 0, coord.Size()); err != nil {
			return fmt.Errorf("router: fetch coordinator region: %w", err)
		}
		shardCount, err := readCoordHeader(coord.Local)
		if err != nil {
			return err
		}
		if shardCount != len(r.shards) {
			return fmt.Errorf("router: coordinator region recorded %d shards, router has %d",
				shardCount, len(r.shards))
		}
		var maxGID uint64
		for s := 0; s < coordSlots; s++ {
			dec, ok := parseDecision(coord.Local, s)
			if !ok {
				continue
			}
			if dec.gid > maxGID {
				maxGID = dec.gid
			}
			for _, p := range dec.parts {
				if int(p.shard) >= len(r.shards) {
					continue
				}
				if decisions[p.shard] == nil {
					decisions[p.shard] = make(map[int]uint64)
				}
				if p.txid > decisions[p.shard][int(p.slot)] {
					decisions[p.shard][int(p.slot)] = p.txid
				}
			}
			replayed = append(replayed, s)
		}
		var cursor uint64
		overrides, cursor = parsePlacements(coord.Local)
		r.coordCursor = cursor
		r.nextGID = maxGID
	}

	for i, lib := range r.shards {
		if err := lib.RecoverWithDecisions(decisions[i]); err != nil {
			return fmt.Errorf("router: recover shard %d: %w", i, err)
		}
	}

	// Every replayed decision is now complete on all its participants;
	// retire the records so the slots free up.
	for _, s := range replayed {
		off := coordSlotOff(s)
		clear(coord.Local[off : off+8])
		if err := r.nets[0].PushWith(coord, []netram.Range{{Offset: off, Length: 8}}, netram.PushOpts{AllAck: true}); err != nil {
			return fmt.Errorf("router: retire decision record: %w", err)
		}
		r.metrics.replayed.Inc()
	}
	if len(r.shards) > 1 {
		r.coord = coord
		r.coordFree = allCoordSlots()
	}

	// Rebuild placement from the durable overrides, then drop copies an
	// interrupted migration left on a shard that does not own them: a
	// half-filled destination (no override recorded yet) or an undropped
	// source (override recorded, drop lost to the crash).
	r.placed = make(map[string]int)
	r.overridden = make(map[string]bool)
	for name, shard := range overrides {
		if shard < len(r.shards) {
			r.placed[name] = shard
			r.overridden[name] = true
		}
	}
	for i, lib := range r.shards {
		for _, name := range lib.DatabaseNames() {
			if r.homeShardLocked(name) != i {
				if err := lib.DropDB(name); err != nil {
					return fmt.Errorf("router: drop stale migration copy %q on shard %d: %w",
						name, i, err)
				}
			}
		}
	}
	r.dbs = make(map[string]*DB)
	r.migrations = make(map[string]*migration)
	r.indoubt = nil
	r.crashed = false
	return nil
}

// Close implements engine.Engine. Every shard's remote segments stay
// exported, like the library's own Close.
func (r *Router) Close() error {
	r.mu.Lock()
	r.crashed = true
	r.coord = nil
	r.mu.Unlock()
	for _, lib := range r.shards {
		_ = lib.Close()
	}
	return nil
}

// Stats snapshots the router counters.
func (r *Router) Stats() Stats {
	return Stats{
		SingleShardCommits:  r.metrics.single.Load(),
		CrossShardCommits:   r.metrics.cross.Load(),
		CrossShardAborts:    r.metrics.crossAborts.Load(),
		DecisionsReplayed:   r.metrics.replayed.Load(),
		CompletionsRepaired: r.metrics.repaired.Load(),
		Migrations:          r.metrics.migrations.Load(),
	}
}

// SetFlight attaches a flight recorder for in-doubt repair events.
// Call during wiring, before traffic flows; nil records nothing.
func (r *Router) SetFlight(f *flight.Recorder) { r.flight = f }

// RegisterMetrics registers the router's own counters plus every shard's
// commit-path and netram series under per-shard prefixes
// ("perseas_shard0_commit_total_ns", ...), giving each shard its own
// observability identity on one registry.
func (r *Router) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterGauge("perseas_router_shards", "configured shard count", func() uint64 {
		return uint64(len(r.shards))
	})
	reg.RegisterCounter("perseas_router_single_shard_commits_total", "commits through one shard's plain path", &r.metrics.single)
	reg.RegisterCounter("perseas_router_cross_shard_commits_total", "commits through the cross-shard protocol", &r.metrics.cross)
	reg.RegisterCounter("perseas_router_cross_shard_aborts_total", "cross-shard transactions rolled back at commit", &r.metrics.crossAborts)
	reg.RegisterCounter("perseas_router_decisions_replayed_total", "decision records finished by recovery", &r.metrics.replayed)
	reg.RegisterCounter("perseas_router_completions_repaired_total", "decided commits finished by live in-doubt repair", &r.metrics.repaired)
	reg.RegisterCounter("perseas_router_migrations_total", "completed online database migrations", &r.metrics.migrations)
	for i, lib := range r.shards {
		lib.RegisterMetricsPrefixed(reg, fmt.Sprintf("perseas_shard%d", i))
	}
}

// CommitLatencyRows merges every shard's commit-path breakdown into one
// table, as if all commits had gone through one instance.
func (r *Router) CommitLatencyRows() []obs.LatencyRow {
	rows := r.shards[0].CommitLatencyRows()
	for _, lib := range r.shards[1:] {
		for i, row := range lib.CommitLatencyRows() {
			rows[i].Snap = rows[i].Snap.Merge(row.Snap)
		}
	}
	return rows
}

// DB is a routed database handle: the shard library's handle plus the
// routing identity that sends SetRange to the owning shard. Migration
// atomically rebinds shard and inner handle; readers access them under
// the router lock.
type DB struct {
	r    *Router
	name string
	// shard and inner are guarded by r.mu (migration rebinds them).
	shard int
	inner engine.DB
}

// Name implements engine.DB.
func (d *DB) Name() string { return d.name }

// Size implements engine.DB.
func (d *DB) Size() uint64 {
	d.r.mu.Lock()
	inner := d.inner
	d.r.mu.Unlock()
	return inner.Size()
}

// Bytes implements engine.DB. After a migration the returned slice is
// the destination shard's local copy; callers that cached the slice
// across transactions must call Bytes again, exactly as they must after
// a crash and reopen.
func (d *DB) Bytes() []byte {
	d.r.mu.Lock()
	inner := d.inner
	d.r.mu.Unlock()
	return inner.Bytes()
}
