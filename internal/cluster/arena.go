package cluster

import (
	"time"

	"repro/internal/plan"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// This file holds the simulator's struct-of-arrays memory layout: every
// mutable record the hot loop touches lives in a contiguous slice owned by
// the pooled Simulator and is addressed by a small-int handle instead of a
// pointer or map key. Release() reclaims everything wholesale, so repeated
// scenarios run with near-zero steady-state heap allocation (see DESIGN.md
// §12).

// nilAttempt is the null attempt handle / intrusive-list terminator.
const nilAttempt = int32(-1)

// attemptRec is one in-flight task attempt, stored flat in the attempt
// arena. It merges the roles of the former runningTask (per-node map value)
// and attemptRef (global map value): the node's running set is now the
// intrusive doubly-linked list threaded through prev/next, and global lookup
// is direct indexing by handle.
type attemptRec struct {
	// end and dur give the attempt's scheduled completion and duration.
	end simtime.Time
	dur time.Duration
	// wf, job, node locate the task and where it runs.
	wf   int32
	job  int32
	node int32
	// twin is the handle of the other attempt of the same task under
	// speculative execution (nilAttempt = none). Invariant: twin handles
	// never dangle — whenever one attempt of a pair dies, the survivor is
	// killed or detached in the same step, so a live twin field always
	// names a live record.
	twin int32
	// seq is the attempt's launch sequence, the deterministic tie-break key
	// speculation candidates are ordered by.
	seq int32
	// prev/next thread the node's running list while live; next doubles as
	// the free-list link while dead.
	prev, next int32
	// cprev/cnext thread the attempt's phase's candidate list while cand is
	// set (see candidates).
	cprev, cnext int32
	// gen distinguishes reuses of this slot: free() bumps it, so a pending
	// completion event carrying (handle, gen) of an earlier occupant is
	// recognized as stale — the role the map-existence check used to play,
	// made ABA-safe under handle reuse.
	gen uint32
	// st is the attempt's SlotType, narrowed to a byte.
	st uint8
	// speculative marks the duplicate attempt, which carries no JobState
	// accounting of its own.
	speculative bool
	// live reports whether the record currently holds a running attempt.
	live bool
	// cand reports whether the attempt is a speculation candidate. A freed
	// record never is one (Simulator.freeAttempt).
	cand bool
}

// attemptArena allocates attemptRecs from one contiguous slice. Freed
// records chain into a free list and are handed out again before the slice
// grows, so a scenario's attempt churn settles into a fixed working set;
// reset() reclaims everything at once while keeping capacity.
type attemptArena struct {
	recs     []attemptRec
	freeHead int32
	live     int
	// reused/grown tally free-list hits and slice growth this run, flushed
	// to the woha_sim_arena_* metrics at the end of Run (plain ints keep
	// the uninstrumented hot path free of atomics).
	reused, grown int
}

func (a *attemptArena) reset() {
	a.recs = a.recs[:0]
	a.freeHead = nilAttempt
	a.live = 0
	a.reused, a.grown = 0, 0
}

// alloc returns a record ready to overwrite. Its gen is already advanced
// past every handle previously issued for the slot; callers must preserve
// it. The returned pointer is invalidated by the next alloc (the slice may
// grow) — copy what you need before allocating again.
func (a *attemptArena) alloc() (int32, *attemptRec) {
	if h := a.freeHead; h != nilAttempt {
		rec := &a.recs[h]
		a.freeHead = rec.next
		a.live++
		a.reused++
		return h, rec
	}
	if len(a.recs) == cap(a.recs) {
		a.grown++
	}
	a.recs = append(a.recs, attemptRec{})
	h := int32(len(a.recs) - 1)
	a.live++
	return h, &a.recs[h]
}

// free retires h's record and advances its generation, invalidating every
// outstanding (handle, gen) reference to it. The caller must have unlinked
// it from its node's running list first — free repurposes next for the free
// list.
func (a *attemptArena) free(h int32) {
	rec := &a.recs[h]
	rec.live = false
	rec.gen++
	rec.next = a.freeHead
	a.freeHead = h
	a.live--
}

// Workflow-state arena: WorkflowState and JobState records are reused across
// pooled runs like attempt records, but policies and observers hold
// *WorkflowState for a whole run, so these live in fixed-size blocks that
// never move once allocated — growth appends new blocks instead of
// relocating old ones.
const (
	wsBlockSize  = 64
	jobBlockSize = 512
)

type wsArena struct {
	blocks [][]WorkflowState
	used   int
	// jobBlocks is carved sequentially; a workflow's JobState slice never
	// spans blocks. Workflows with more than jobBlockSize jobs get a
	// dedicated exact-size block.
	jobBlocks [][]JobState
	jobBlock  int
	jobUsed   int
}

func (a *wsArena) reset() {
	a.used = 0
	a.jobBlock, a.jobUsed = 0, 0
}

// release zeroes every record handed out since the last reset — dropping the
// Spec/Plan/Jobs references so a pooled simulator pins nothing — and then
// resets. Called from Simulator.Release.
func (a *wsArena) release() {
	for i := 0; i < a.used; i++ {
		a.blocks[i/wsBlockSize][i%wsBlockSize] = WorkflowState{}
	}
	for bi := 0; bi <= a.jobBlock && bi < len(a.jobBlocks); bi++ {
		n := len(a.jobBlocks[bi])
		if bi == a.jobBlock {
			n = a.jobUsed
		}
		clear(a.jobBlocks[bi][:n])
	}
	a.reset()
}

// alloc returns a fully initialized workflow state whose memory is stable
// for the simulator's lifetime (not just this run — blocks are never
// freed, only overwritten by a later run's alloc).
func (a *wsArena) alloc(index int, w *workflow.Workflow, p *plan.Plan) *WorkflowState {
	bi := a.used / wsBlockSize
	if bi == len(a.blocks) {
		a.blocks = append(a.blocks, make([]WorkflowState, wsBlockSize))
	}
	ws := &a.blocks[bi][a.used%wsBlockSize]
	a.used++
	initWorkflowState(ws, a.allocJobs(len(w.Jobs)), index, w, p)
	return ws
}

func (a *wsArena) allocJobs(n int) []JobState {
	for {
		if a.jobBlock == len(a.jobBlocks) {
			size := jobBlockSize
			if n > size {
				size = n
			}
			a.jobBlocks = append(a.jobBlocks, make([]JobState, size))
		}
		if blk := a.jobBlocks[a.jobBlock]; a.jobUsed+n <= len(blk) {
			js := blk[a.jobUsed : a.jobUsed+n : a.jobUsed+n]
			a.jobUsed += n
			return js
		}
		// Tail of the current block is too small; waste it and move on.
		a.jobBlock++
		a.jobUsed = 0
	}
}
