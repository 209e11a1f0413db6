package sim

// Checkpoint/restore: serializing a quiescent engine — clock, RNG, procs,
// pending proc wakeups and registered component state — so long boots run
// once and sweeps warm-start from the saved image (the gem5 workflow).
//
// What can and cannot be serialized follows directly from the engine's
// execution model. Proc coroutine stacks cannot be captured, so a checkpoint
// is only taken at a quiescent point: no proc running, and every pending
// event a plain proc wakeup (engine callbacks — After closures, parallel
// mailbox deliveries — carry Go closures and make the engine non-quiescent;
// Checkpoint reports an error rather than silently dropping them).
//
// Restore rebuilds the engine in two steps. First a caller-supplied build
// function reconstructs the host-side object graph: it registers the same
// checkpoint components under the same names and spawns one proc (by the
// same unique name) for each proc that was alive at checkpoint time. Then
// Restore overwrites the fresh engine's state with the serialized image:
// clock, sequence counters, RNG stream, per-proc park/daemon flags, the
// event queue, and each component's blob.
//
// Procs come back "at the top": a restored proc's coroutine restarts its
// function from the beginning rather than from the yield point where the
// checkpoint caught it. The contract for checkpoint-safe procs is therefore
// the one the repo's blocking primitives already follow — keep durable state
// in checkpointed components rather than in locals across yields, and
// re-check conditions before parking (sim.Queue.Pop's for-loop shape), so
// that "resume from entry" and "return from yield" are indistinguishable. A
// daemon parked in such a loop restores exactly: its waiting flag comes back
// and the next Wake delivers it into the loop as if it had never left.

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"multikernel/internal/ckpt"
)

// Checkpoint stream framing.
const (
	ckptMagic   = "MKCKPT2\n"
	ckptTrailer = "MKCKPTE\n"
)

// Proc flag bits in the serialized image.
const (
	pfDaemon = 1 << iota
	pfWaiting
	pfToken
	pfTimeout
)

// Checkpointer is implemented by simulation components whose state must
// survive checkpoint/restore: cache directories, memory pages, the metrics
// registry. CheckpointState writes the component's complete state;
// RestoreState reads back exactly what CheckpointState wrote.
type Checkpointer interface {
	CheckpointState(w io.Writer) error
	RestoreState(r io.Reader) error
}

type ckptComponent struct {
	name string
	c    Checkpointer
}

// RegisterCheckpoint adds a component to the engine's checkpoint image under
// a unique name. Registration order is the serialization order, so restore
// builders must register the same components under the same names.
func (e *Engine) RegisterCheckpoint(name string, c Checkpointer) {
	for _, rc := range e.ckpts {
		if rc.name == name {
			panic("sim: duplicate checkpoint component " + name)
		}
	}
	e.ckpts = append(e.ckpts, ckptComponent{name: name, c: c})
}

// Checkpoint serializes the engine's complete state to w. It must be called
// from driver context (between Run calls, never from a proc or engine
// callback), and the engine must be quiescent in the checkpointable sense:
// every pending event is a plain proc wakeup. Pending engine callbacks
// (After timers, ParkTimeout deadlines, parallel mailbox deliveries) are Go
// closures, which cannot be serialized; their presence is an error.
func (e *Engine) Checkpoint(w io.Writer) error {
	if e.running != nil {
		return fmt.Errorf("sim: checkpoint requires driver context")
	}
	if len(e.chains) > 0 {
		// A skipped run of idle steps is an idle loop mid-flight, like a
		// pending idle step.
		return fmt.Errorf("sim: checkpoint with proc %q's idle steps being skipped (not quiescent)", e.chains[0].p.name)
	}

	// Procs, sorted by id. Mid-unwind procs (killed but not yet done) and
	// duplicate names would make the image unrestorable.
	procs := make([]*Proc, 0, len(e.procs))
	names := make(map[string]bool, len(e.procs))
	for p := range e.procs {
		if p.killed {
			return fmt.Errorf("sim: checkpoint with proc %q mid-kill", p.name)
		}
		if p.idle != nil {
			// The idle loop's state lives in Go memory, like an After
			// closure's, so its wakeup is not a plain proc wakeup.
			return fmt.Errorf("sim: checkpoint with proc %q in an idle step (not quiescent)", p.name)
		}
		if names[p.name] {
			return fmt.Errorf("sim: checkpoint requires unique proc names; %q is duplicated", p.name)
		}
		names[p.name] = true
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].id < procs[j].id })

	// Events, in dispatch order. Only proc wakeups are serializable.
	var evs []*event
	for _, ev := range e.queued() {
		if ev.fn != nil {
			return fmt.Errorf("sim: checkpoint with pending engine callback at t=%d (not quiescent)", ev.at)
		}
		if e.lagLo != 0 && ev.seq >= e.lagLo && ev.seq <= e.lagHi {
			// Numbered while the counter ran behind the skipped steps: it
			// orders right but is not the reference schedule's number.
			return fmt.Errorf("sim: checkpoint with an event at t=%d scheduled while idle steps were skipped", ev.at)
		}
		if !ev.p.done { // a dead proc's stale wakeup: dispatch would drop it
			evs = append(evs, ev)
		}
	}

	if err := ckpt.Magic(w, ckptMagic); err != nil {
		return err
	}
	if err := ckpt.WriteU64(w, uint64(e.now), e.seq, e.serial, e.rng.State(),
		uint64(e.heapMax.Value()), e.wakes, uint64(e.nextID)); err != nil {
		return err
	}
	if err := ckpt.WriteU64(w, uint64(len(procs))); err != nil {
		return err
	}
	for _, p := range procs {
		var flags uint64
		if p.daemon {
			flags |= pfDaemon
		}
		if p.waiting {
			flags |= pfWaiting
		}
		if p.token {
			flags |= pfToken
		}
		if p.timeout {
			flags |= pfTimeout
		}
		if err := ckpt.WriteU64(w, uint64(p.id)); err != nil {
			return err
		}
		if err := ckpt.WriteString(w, p.name); err != nil {
			return err
		}
		if err := ckpt.WriteU64(w, flags, p.parkSeq); err != nil {
			return err
		}
	}
	if err := ckpt.WriteU64(w, uint64(len(evs))); err != nil {
		return err
	}
	for _, ev := range evs {
		if err := ckpt.WriteU64(w, uint64(ev.at), ev.pri, ev.seq, uint64(ev.p.id)); err != nil {
			return err
		}
	}
	if err := ckpt.WriteU64(w, uint64(len(e.ckpts))); err != nil {
		return err
	}
	var blob bytes.Buffer
	for _, rc := range e.ckpts {
		blob.Reset()
		if err := rc.c.CheckpointState(&blob); err != nil {
			return fmt.Errorf("sim: checkpoint component %q: %w", rc.name, err)
		}
		if err := ckpt.WriteString(w, rc.name); err != nil {
			return err
		}
		if err := ckpt.WriteBytes(w, blob.Bytes()); err != nil {
			return err
		}
	}
	return ckpt.Magic(w, ckptTrailer)
}

// Restore reads a checkpoint and returns an engine continuing from it. build
// reconstructs the host-side object graph on the fresh engine — registering
// the same checkpoint components and spawning one proc per live checkpointed
// proc, matched by (unique) name; proc ids are restored from the image, so
// spawn order inside build does not matter. Any events build schedules
// (including the spawned procs' start events) are discarded before the
// serialized state is applied: build constructs, the image governs.
func Restore(r io.Reader, build func(e *Engine)) (_ *Engine, err error) {
	if err := ckpt.ExpectMagic(r, ckptMagic); err != nil {
		return nil, err
	}
	var now, seq, serial, rngState, maxHeap, wakes, nextID uint64
	if err := ckpt.ReadU64(r, &now, &seq, &serial, &rngState, &maxHeap, &wakes, &nextID); err != nil {
		return nil, err
	}
	type procImage struct {
		id      uint64
		name    string
		flags   uint64
		parkSeq uint64
	}
	var nprocs uint64
	if err := ckpt.ReadU64(r, &nprocs); err != nil {
		return nil, err
	}
	// The tables grow as their records arrive rather than being sized from
	// the header's counts, so a corrupt count fails at the end of the image
	// instead of allocating whatever the count says.
	var procs []procImage
	for range nprocs {
		var img procImage
		var err error
		if err = ckpt.ReadU64(r, &img.id); err == nil {
			if img.name, err = ckpt.ReadString(r); err == nil {
				err = ckpt.ReadU64(r, &img.flags, &img.parkSeq)
			}
		}
		if err != nil {
			return nil, err
		}
		procs = append(procs, img)
	}
	type evImage struct{ at, pri, seq, procID uint64 }
	var nevs uint64
	if err := ckpt.ReadU64(r, &nevs); err != nil {
		return nil, err
	}
	var evs []evImage
	for range nevs {
		var img evImage
		if err := ckpt.ReadU64(r, &img.at, &img.pri, &img.seq, &img.procID); err != nil {
			return nil, err
		}
		evs = append(evs, img)
	}
	var ncomp uint64
	if err := ckpt.ReadU64(r, &ncomp); err != nil {
		return nil, err
	}
	type compImage struct {
		name string
		blob []byte
	}
	var comps []compImage
	for range ncomp {
		name, err := ckpt.ReadString(r)
		if err != nil {
			return nil, err
		}
		blob, err := ckpt.ReadBytes(r)
		if err != nil {
			return nil, err
		}
		comps = append(comps, compImage{name, blob})
	}
	if err := ckpt.ExpectMagic(r, ckptTrailer); err != nil {
		return nil, err
	}
	if rest, err := io.ReadAll(r); err != nil {
		return nil, err
	} else if len(rest) > 0 {
		return nil, fmt.Errorf("sim: %d bytes after the image's trailer", len(rest))
	}

	e := NewEngine(0)
	build(e)
	defer func() {
		if err != nil {
			e.Close() // release the coroutines of the procs build spawned
		}
	}()

	// Discard build-time scheduling artifacts: the spawned procs' start
	// events (their coroutines stay unstarted until first resumed) and any
	// callbacks build scheduled by mistake.
	for e.head != nil {
		e.releaseEvent(e.pop())
	}
	e.now = Time(now)
	e.seq = seq
	e.serial = serial
	e.rng.SetState(rngState)
	e.heapMax.Set(int64(maxHeap))
	e.wakes = wakes
	e.nextID = int(nextID)

	// Match live procs by name and restore identity and blocking state.
	byName := make(map[string]*Proc, len(e.procs))
	for p := range e.procs {
		if byName[p.name] != nil {
			return nil, fmt.Errorf("sim: restore builder spawned duplicate proc name %q", p.name)
		}
		byName[p.name] = p
	}
	if len(byName) != len(procs) {
		return nil, fmt.Errorf("sim: restore builder spawned %d procs; checkpoint has %d", len(byName), len(procs))
	}
	byID := make(map[uint64]*Proc, len(procs))
	for _, img := range procs {
		p := byName[img.name]
		if p == nil {
			return nil, fmt.Errorf("sim: checkpointed proc %q not spawned by restore builder", img.name)
		}
		p.id = int(img.id)
		p.daemon = img.flags&pfDaemon != 0
		p.waiting = img.flags&pfWaiting != 0
		p.token = img.flags&pfToken != 0
		p.timeout = img.flags&pfTimeout != 0
		p.parkSeq = img.parkSeq
		byID[img.id] = p
	}

	for _, img := range evs {
		p := byID[img.procID]
		if p == nil {
			return nil, fmt.Errorf("sim: checkpointed event for unknown proc id %d", img.procID)
		}
		ev := e.newEvent()
		ev.at, ev.pri, ev.seq, ev.p = Time(img.at), img.pri, img.seq, p
		e.push(ev) // after the clock is set: push files ev against it
	}

	regd := make(map[string]Checkpointer, len(e.ckpts))
	for _, rc := range e.ckpts {
		regd[rc.name] = rc.c
	}
	if len(regd) != len(comps) {
		return nil, fmt.Errorf("sim: restore builder registered %d checkpoint components; checkpoint has %d", len(regd), len(comps))
	}
	for _, img := range comps {
		c := regd[img.name]
		if c == nil {
			return nil, fmt.Errorf("sim: checkpointed component %q not registered by restore builder", img.name)
		}
		if err := c.RestoreState(bytes.NewReader(img.blob)); err != nil {
			return nil, fmt.Errorf("sim: restore component %q: %w", img.name, err)
		}
	}
	return e, nil
}
