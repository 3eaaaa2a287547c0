package router

import (
	"errors"
	"fmt"
	"time"

	"github.com/ics-forth/perseas/internal/engine"
	"github.com/ics-forth/perseas/internal/netram"
)

// Online shard migration reuses the dirty-epoch discipline of
// netram.RebuildMirror: copy the database in chunks while transactions
// keep committing against the source shard, re-copy what changed each
// epoch, and only quiesce the database for a final shrinking epoch.
// Instead of refilling a replacement mirror from the primary, the epochs
// fill a destination shard's copy from the source shard:
//
//	epoch 0   chunked sweep of the whole database; chunks under a live
//	          claim are skipped and marked dirty
//	epoch i   re-copy the ranges declared by transactions (or skipped)
//	          since the last epoch, coalesced
//	final     whole-database claim quiesces writers; the remaining dirty
//	          ranges copy over; the placement record lands in the
//	          coordinator log (the migration's durable switch point);
//	          the wrapper rebinds and the source copy drops
//
// Crash safety mirrors the cross-shard commit: before the placement
// record is durable the source shard owns the database and recovery
// drops the half-filled destination; after it, the destination owns it
// and recovery drops the undropped source.

const (
	migrateChunk = 256 << 10
	// migrateMaxEpochs bounds the catch-up loop before the final
	// quiescing epoch forces convergence.
	migrateMaxEpochs = 8
	// migrateClaimTimeout bounds how long the final epoch waits for
	// in-flight transactions to drain.
	migrateClaimTimeout = 10 * time.Second
)

// migration is the in-flight state of one database move; routerTx
// SetRange feeds its dirty set the moment a range claim is taken, so
// every range a transaction can still change is dirty before that
// transaction's claims release — which is what makes the final epoch's
// dirty snapshot complete (ClaimDB only succeeds once all claims are
// released, hence after all their dirty records landed). dirty is
// guarded by the router's mu.
type migration struct {
	dirty []netram.Range
}

// addDirty records a declared range for the next copy epoch. Caller
// holds the router's mu.
func (m *migration) addDirty(off, n uint64) {
	m.dirty = append(m.dirty, netram.Range{Offset: off, Length: n})
}

// MigrateDB moves a database to another shard while transactions keep
// running. Writers see at most a short window of engine.ErrConflict
// retries during the final epoch, the same backpressure any conflicting
// transaction sees. Handles held by the application stay valid: their
// routing rebinds atomically at the switch point.
func (r *Router) MigrateDB(name string, dest int) error {
	if dest < 0 || dest >= len(r.shards) {
		return fmt.Errorf("router: destination shard %d out of range [0,%d)", dest, len(r.shards))
	}
	r.mu.Lock()
	if r.crashed {
		r.mu.Unlock()
		return engine.ErrCrashed
	}
	if r.coord == nil {
		r.mu.Unlock()
		return errors.New("router: migration needs a multi-shard router")
	}
	if r.migrations[name] != nil {
		r.mu.Unlock()
		return fmt.Errorf("router: database %q is already migrating", name)
	}
	d, ok := r.dbs[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("router: database %q is not open", name)
	}
	src := d.shard
	if src == dest {
		r.mu.Unlock()
		return nil
	}
	srcInner := d.inner
	mig := &migration{}
	r.migrations[name] = mig
	r.mu.Unlock()

	srcLib, destLib := r.shards[src], r.shards[dest]
	fail := func(err error) error {
		r.mu.Lock()
		delete(r.migrations, name)
		r.mu.Unlock()
		return err
	}

	// A leftover destination copy from an interrupted earlier attempt is
	// garbage; recovery normally drops it, but a crash-free retry must
	// too.
	if _, err := destLib.OpenDB(name); err == nil {
		if err := destLib.DropDB(name); err != nil {
			return fail(fmt.Errorf("router: drop leftover copy of %q: %w", name, err))
		}
	}
	destInner, err := destLib.CreateDB(name, srcInner.Size())
	if err != nil {
		return fail(fmt.Errorf("router: create destination copy of %q: %w", name, err))
	}

	// Epoch 0: chunked sweep. Chunks under a live claim have an
	// undecided writer; they re-enter through the dirty set.
	size := srcInner.Size()
	buf := make([]byte, migrateChunk)
	copyRange := func(off, n uint64) error {
		for n > 0 {
			step := min(n, uint64(migrateChunk))
			if err := srcLib.SnapshotRange(srcInner, off, step, buf); err != nil {
				if errors.Is(err, engine.ErrConflict) {
					r.mu.Lock()
					mig.addDirty(off, step)
					r.mu.Unlock()
					off, n = off+step, n-step
					continue
				}
				return err
			}
			copy(destInner.Bytes()[off:off+step], buf[:step])
			if err := destLib.PushRange(destInner, off, step); err != nil {
				return err
			}
			off, n = off+step, n-step
		}
		return nil
	}
	if err := copyRange(0, size); err != nil {
		return fail(fmt.Errorf("router: migrate %q epoch 0: %w", name, err))
	}

	// Catch-up epochs: drain the dirty set while it keeps shrinking.
	for epoch := 1; epoch <= migrateMaxEpochs; epoch++ {
		r.mu.Lock()
		dirty := netram.Coalesce(mig.dirty)
		mig.dirty = nil
		r.mu.Unlock()
		if len(dirty) == 0 {
			break
		}
		for _, rg := range dirty {
			if err := copyRange(rg.Offset, rg.Length); err != nil {
				return fail(fmt.Errorf("router: migrate %q epoch %d: %w", name, epoch, err))
			}
		}
	}

	// Final epoch: quiesce the database. New SetRange declarations on it
	// conflict against the whole-database claim until the switch; the
	// claim itself waits for in-flight holders to finish.
	if r.hookBeforeQuiesce != nil {
		r.hookBeforeQuiesce()
	}
	deadline := time.Now().Add(migrateClaimTimeout)
	for {
		err := srcLib.ClaimDB(srcInner)
		if err == nil {
			break
		}
		if !errors.Is(err, engine.ErrConflict) {
			return fail(fmt.Errorf("router: quiesce %q: %w", name, err))
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("router: quiesce %q: transactions did not drain: %w", name, err))
		}
		time.Sleep(200 * time.Microsecond)
	}
	release := func() { srcLib.ReleaseDBClaim() }

	// Under the claim the local copy is exactly the committed state:
	// take it whole (local memory is cheap; the wire is not) and push
	// only what the epochs have not already mirrored.
	copy(destInner.Bytes(), srcInner.Bytes())
	r.mu.Lock()
	final := netram.Coalesce(mig.dirty)
	mig.dirty = nil
	r.mu.Unlock()
	for _, rg := range final {
		if err := destLib.PushRange(destInner, rg.Offset, rg.Length); err != nil {
			release()
			return fail(fmt.Errorf("router: migrate %q final push: %w", name, err))
		}
	}

	// The durable switch point: the placement record. Before this push
	// the source owns the database; after it, the destination does.
	r.mu.Lock()
	if r.crashed || r.coord == nil {
		r.mu.Unlock()
		release()
		return fail(engine.ErrCrashed)
	}
	coord := r.coord
	off, n, err := r.appendPlacementLocked(name, dest)
	if err != nil {
		r.mu.Unlock()
		release()
		return fail(fmt.Errorf("router: record placement of %q: %w", name, err))
	}
	r.mu.Unlock()
	if err := r.nets[0].PushWith(coord, []netram.Range{{Offset: off, Length: n}}, netram.PushOpts{AllAck: true}); err != nil {
		release()
		return fail(fmt.Errorf("router: publish placement of %q: %w", name, err))
	}

	// Rebind the live wrapper; from here every new SetRange routes to
	// the destination shard.
	r.mu.Lock()
	d.shard = dest
	d.inner = destInner
	r.placed[name] = dest
	r.overridden[name] = true
	delete(r.migrations, name)
	r.mu.Unlock()

	// Drop the source copy; the migration claim releases with it.
	if err := srcLib.DropDBMigrated(name); err != nil {
		return fmt.Errorf("router: drop source copy of %q: %w", name, err)
	}
	r.metrics.migrations.Inc()
	return nil
}
