package costmodel

import (
	"simaibench/internal/datastore"
	"simaibench/internal/des"
)

// Checkpoint staging: a solver rank under checkpoint/restart persists
// its state through the same backend deployments the workflow stages
// snapshots through, so checkpoint traffic pays the same costs — and
// contends on the same shared serialization points — as the staging
// traffic it rides alongside. A checkpoint is a shared transfer with
// interruptibility: the node writing it can itself crash at any phase,
// so it must be abortable while queued on the shared service slots
// (des.Resource.Withdraw), while holding a service slot, and while the
// client-side transfer is in flight (the modeled transfer completes
// server-side but its completion is discarded — the client that asked
// for it is gone).
//
// For the node-local backend a "checkpoint" models partner
// checkpointing: the snapshot is mirrored into a neighbour's tmpfs over
// the node exchange bus, so the cost shape matches a local staging op
// and the data survives the owner's crash. The shared backends (Redis,
// Dragon, Lustre) persist checkpoints exactly like staged snapshots.

// A checkpoint's phases. ckInner tracks only the interruptible state
// machine; the client transfer keeps its own busy flag so an aborted
// in-flight transfer can drain before the row restarts.
const (
	ckIdle uint8 = iota
	ckQueued
	ckHolding
	ckInner
)

// CheckpointTable is a rank table's checkpoint writes, or its restore
// reads, of one (backend, size): row r is rank r's, perNode rows to a
// node from node 0 up, as the rank table lays its ranks out. Start(row)
// begins row's checkpoint, at most one at a time; Abort(row) tears it
// down from any phase; done.Fire(row) runs when it completes, never for
// an aborted one. The rows' client transfers are the rows of one inner
// XferTable.
type CheckpointTable struct {
	env   *des.Env
	svc   *des.Resource // nil: no shared service queue (node-local, lustre)
	holdS float64
	inner *XferTable // fires the table as ckLanded
	done  des.Handler
	rows  []ckRow
}

// ckRow is one rank's checkpoint.
type ckRow struct {
	t         *CheckpointTable
	row       int32
	state     uint8
	innerBusy bool // client transfer in flight (survives Abort)
	discard   bool // Abort hit ckInner: swallow the completion
	restart   bool // Start arrived while an aborted transfer drains
	// gen stamps each queued claim and each service hold: the grant or
	// the hold's end fires with it as the row. An Abort that cannot take
	// the pending event back — the grant scheduled but not yet run, or
	// the hold armed — bumps it, so an orphaned grant releases the slot
	// and stops, and an orphaned hold does nothing, instead of carrying
	// a dead client's checkpoint forward.
	gen int32
}

// A row's two service events, each a Handler over the row: its service
// slot granted and its service hold over (row: the generation). The
// table is the Handler of its inner transfers (ckLanded).
type (
	ckGranted ckRow
	ckHeld    ckRow
	ckLanded  CheckpointTable
)

// NewCheckpointTable builds n checkpoints of mb megabytes against
// backend b, perNode rows to a node: writes, or with read restore reads
// (LocalCost's read scale). Each queues for the shared deployment's
// service slots when b has them, then runs the client-side transfer.
func (m *Model) NewCheckpointTable(b datastore.Backend, n, perNode int, mb float64, read bool, done des.Handler) *CheckpointTable {
	t := &CheckpointTable{env: m.env, done: done, rows: make([]ckRow, n)}
	for i := range t.rows {
		t.rows[i] = ckRow{t: t, row: int32(i)}
	}
	t.inner = m.NewXferTable(b, n, perNode, mb, read, false, (*ckLanded)(t))
	if datastore.SharedDeployment(b) {
		t.svc = m.sharedService(b) // nil for lustre: MDS/OST model it
		t.holdS = m.sharedHold(b, mb, read)
	}
	return t
}

// Start begins row's checkpoint at the current virtual time. Starting
// while the row's previous one is still active is the caller's bug —
// except immediately after an Abort whose client transfer has not
// drained yet, in which case the new checkpoint begins when it does.
func (t *CheckpointTable) Start(row int32) {
	r := &t.rows[row]
	if r.innerBusy {
		r.restart = true
		return
	}
	r.begin()
}

func (r *ckRow) begin() {
	if r.t.svc == nil {
		r.startInner()
		return
	}
	r.state = ckQueued
	r.t.svc.RequestRow((*ckGranted)(r), r.gen)
}

// Fire owns a service slot. A stale generation means the claim was
// aborted after the slot had already been handed over: the dead
// client's slot frees and nothing else happens.
func (g *ckGranted) Fire(gen int32) {
	r := (*ckRow)(g)
	if gen != r.gen {
		r.t.svc.Release()
		return
	}
	r.state = ckHolding
	r.t.env.AfterRow(r.t.holdS, (*ckHeld)(r), gen)
}

// Fire ends the service hold and starts the client transfer; a stale
// generation means Abort already freed the slot.
func (h *ckHeld) Fire(gen int32) {
	r := (*ckRow)(h)
	if gen != r.gen {
		return
	}
	r.t.svc.Release()
	r.startInner()
}

func (r *ckRow) startInner() {
	r.state = ckInner
	r.innerBusy = true
	r.t.inner.Start(r.row)
}

// Fire is row's client transfer completing: normally the checkpoint is
// done and done fires; after an Abort the completion is discarded, and
// a Start that arrived while draining begins now.
func (l *ckLanded) Fire(row int32) {
	t := (*CheckpointTable)(l)
	r := &t.rows[row]
	r.innerBusy = false
	r.state = ckIdle
	if r.discard {
		r.discard = false
		if r.restart {
			r.restart = false
			r.begin()
		}
		return
	}
	t.done.Fire(row)
}

// Abort tears down row's checkpoint in progress: a queued claim is
// withdrawn from the service FIFO, a held service slot is released (the
// server thread frees when its client dies), and an in-flight client
// transfer completes silently without firing done. Aborting an idle row
// is a no-op. Abort also cancels a Start deferred behind a draining
// transfer.
func (t *CheckpointTable) Abort(row int32) {
	r := &t.rows[row]
	r.restart = false
	switch r.state {
	case ckQueued:
		if !t.svc.Withdraw((*ckGranted)(r), r.gen) {
			// Too late to withdraw: the slot is granted and the grant
			// event is already scheduled. Orphan it by generation; it
			// will release the slot when it runs.
			r.gen++
		}
	case ckHolding:
		r.gen++ // orphan the hold's end
		t.svc.Release()
	case ckInner:
		r.discard = true
	}
	r.state = ckIdle
}

// AnalyticCheckpoint returns the closed-form expected duration of one
// uncontended checkpoint write of mb megabytes against backend b:
// shared-deployment service time plus the client transfer. Used for
// Young/Daly optimal-interval reference points in the resilience
// tables.
func (m *Model) AnalyticCheckpoint(b datastore.Backend, mb float64) float64 {
	return m.sharedHold(b, mb, false) + m.AnalyticLocal(b, mb, false)
}
