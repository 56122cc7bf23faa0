package costmodel

import (
	"simaibench/internal/datastore"
	"simaibench/internal/des"
)

// Checkpoint staging: the recovery policies of internal/faults persist
// component state through the same backend deployments the workflow
// stages snapshots through, so checkpoint traffic pays the same costs —
// and contends on the same shared serialization points — as the staging
// traffic it rides alongside. A CheckpointOp is a shared transfer with
// interruptibility: the node writing a checkpoint can itself crash at
// any phase, so the op must be abortable while queued on the shared
// service slots (des.Grant), while holding a service slot (des.Hold),
// and while the client-side transfer is in flight (the modeled transfer
// completes server-side but its completion is discarded — the client
// that asked for it is gone).
//
// For the node-local backend a "checkpoint" models partner
// checkpointing: the snapshot is mirrored into a neighbour's tmpfs over
// the node exchange bus, so the cost shape matches a local staging op
// and the data survives the owner's crash. The shared backends (Redis,
// Dragon, Lustre) persist checkpoints exactly like staged snapshots.

// CheckpointOp phases. ckInner tracks only the interruptible state
// machine; the client transfer keeps its own busy flag so an aborted
// in-flight transfer can drain before the op restarts.
const (
	ckIdle uint8 = iota
	ckQueued
	ckHolding
	ckInner
)

// CheckpointOp is one reusable, abortable checkpoint write or read of a
// fixed (backend, node, size). Construct with NewCheckpointWrite or
// NewCheckpointRead; Start at most one operation at a time; Abort tears
// down an in-progress operation from any phase (the done handler then
// never fires for it).
type CheckpointOp struct {
	env     *des.Env
	svc     *des.Resource // nil: no shared service queue (node-local, lustre)
	holdS   float64
	inner   *XferTable // one row; fires the op as ckLanded
	done    des.Handler
	doneRow int32

	state     uint8
	innerBusy bool // client transfer in flight (survives Abort)
	discard   bool // Abort hit ckInner: swallow the completion
	restart   bool // Start arrived while an aborted transfer drains
	grant     *des.Grant
	hold      des.Hold // fires the op as ckHeld
	// grantGen stamps each queued claim, and a claim's grant fires with
	// it as the row. An Abort that arrives after the slot was already
	// granted — Grant.Cancel too late, the grant scheduled but not yet
	// run — bumps the generation, so the orphaned grant releases the
	// slot and stops instead of carrying a dead client's checkpoint
	// forward.
	grantGen int32
}

// The op's three events, each a Handler over the same op: its service
// slot granted (row: the claim's generation), its service hold over,
// and its client transfer landed.
type (
	ckGranted CheckpointOp
	ckHeld    CheckpointOp
	ckLanded  CheckpointOp
)

// NewCheckpointWrite builds a reusable checkpoint write op against
// backend b from node: service queue (when b has one), then the
// client-side transfer chain. done.Fire(row) runs when the checkpoint
// is durable; an Abort suppresses it.
func (m *Model) NewCheckpointWrite(b datastore.Backend, node int, mb float64, done des.Handler, row int32) *CheckpointOp {
	return m.newCheckpointOp(b, node, mb, false, done, row)
}

// NewCheckpointRead builds a reusable checkpoint restore op (reads
// carry LocalCost's read scale), used by the checkpoint/restart
// recovery policy when a repaired node reloads its last durable state.
func (m *Model) NewCheckpointRead(b datastore.Backend, node int, mb float64, done des.Handler, row int32) *CheckpointOp {
	return m.newCheckpointOp(b, node, mb, true, done, row)
}

func (m *Model) newCheckpointOp(b datastore.Backend, node int, mb float64, read bool, done des.Handler, row int32) *CheckpointOp {
	op := &CheckpointOp{env: m.env, done: done, doneRow: row}
	op.inner = m.newXferTable(b, node, 1, 1, mb, read, false, (*ckLanded)(op))
	if datastore.SharedDeployment(b) {
		op.svc = m.sharedService(b) // nil for lustre: MDS/OST model it
		op.holdS = m.sharedHold(b, mb, read)
	}
	op.hold = des.MakeHold(m.env, (*ckHeld)(op), 0)
	return op
}

// Start begins the checkpoint at the current virtual time. Starting
// while a previous operation is still active is the caller's bug —
// except immediately after an Abort whose client transfer has not
// drained yet, in which case the new operation begins when it does.
func (op *CheckpointOp) Start() {
	if op.innerBusy {
		op.restart = true
		return
	}
	op.begin()
}

func (op *CheckpointOp) begin() {
	if op.svc == nil {
		op.startInner()
		return
	}
	op.state = ckQueued
	op.grant = op.svc.RequestCancellable((*ckGranted)(op), op.grantGen)
}

// Fire owns a service slot. A stale generation means the claim was
// aborted after the slot had already been handed over: the dead
// client's slot frees and nothing else happens.
func (g *ckGranted) Fire(gen int32) {
	op := (*CheckpointOp)(g)
	if gen != op.grantGen {
		op.svc.Release()
		return
	}
	op.state = ckHolding
	op.hold.After(op.holdS)
}

// Fire ends the service hold and starts the client transfer.
func (h *ckHeld) Fire(int32) {
	op := (*CheckpointOp)(h)
	op.svc.Release()
	op.startInner()
}

func (op *CheckpointOp) startInner() {
	op.state = ckInner
	op.innerBusy = true
	op.inner.Start(0)
}

// Fire is the client transfer's completion: normally the checkpoint is
// durable and done fires; after an Abort the completion is discarded,
// and a Start that arrived while draining begins now.
func (l *ckLanded) Fire(int32) {
	op := (*CheckpointOp)(l)
	op.innerBusy = false
	op.state = ckIdle
	if op.discard {
		op.discard = false
		if op.restart {
			op.restart = false
			op.begin()
		}
		return
	}
	op.done.Fire(op.doneRow)
}

// Abort tears down the in-progress operation: a queued claim is
// withdrawn from the service FIFO, a held service slot is released (the
// server thread frees when its client dies), and an in-flight client
// transfer completes silently without firing done. Aborting an idle op
// is a no-op. Abort also cancels a Start deferred behind a draining
// transfer.
func (op *CheckpointOp) Abort() {
	op.restart = false
	switch op.state {
	case ckQueued:
		if !op.grant.Cancel() {
			// Too late to withdraw: the slot is granted and the grant
			// callback is already scheduled. Orphan it by generation;
			// it will release the slot when it runs.
			op.grantGen++
		}
		op.state = ckIdle
	case ckHolding:
		op.hold.Cancel()
		op.svc.Release()
		op.state = ckIdle
	case ckInner:
		op.discard = true
		op.state = ckIdle
	}
}

// Active reports whether an operation (or an aborted-but-draining
// transfer) is in progress.
func (op *CheckpointOp) Active() bool { return op.state != ckIdle || op.innerBusy }

// AnalyticCheckpoint returns the closed-form expected duration of one
// uncontended checkpoint write of mb megabytes against backend b:
// shared-deployment service time plus the client transfer. Used for
// Young/Daly optimal-interval reference points in the resilience
// tables.
func (m *Model) AnalyticCheckpoint(b datastore.Backend, mb float64) float64 {
	return m.sharedHold(b, mb, false) + m.AnalyticLocal(b, mb, false)
}
