package live

import (
	"context"
	"sync"
	"time"

	"repro/internal/cluster"
)

// heartbeatFunc delivers one heartbeat to the master and returns its
// assignments. The direct transport calls the JobTracker in-process; the TCP
// transport goes through net/rpc.
type heartbeatFunc func(Heartbeat) ([]Assignment, error)

// TaskTracker is one worker node: it owns a fixed number of map and reduce
// slots, executes assigned tasks as timed goroutines, and reports
// completions and free slots to the JobTracker on a periodic heartbeat —
// the only moment it receives new work, as in Hadoop-1.
type TaskTracker struct {
	id  int
	cfg Config
	hb  heartbeatFunc

	mu        sync.Mutex
	completed []TaskID

	freeMaps int
	freeReds int

	tasks sync.WaitGroup
}

func newTaskTracker(id int, cfg Config, hb heartbeatFunc) *TaskTracker {
	return &TaskTracker{
		id:       id,
		cfg:      cfg,
		hb:       hb,
		freeMaps: cfg.MapSlotsPerNode,
		freeReds: cfg.ReduceSlotsPerNode,
	}
}

// run drives the heartbeat loop until ctx is done, then waits for in-flight
// tasks to finish.
func (t *TaskTracker) run(ctx context.Context) {
	ticker := time.NewTicker(t.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			t.tasks.Wait()
			return
		case <-ticker.C:
			t.heartbeat(ctx)
		}
	}
}

// heartbeat harvests completions, reports to the JobTracker, and launches
// any assigned tasks.
func (t *TaskTracker) heartbeat(ctx context.Context) {
	t.mu.Lock()
	done := t.completed
	t.completed = nil
	// Completed tasks free their slots in the same heartbeat that reports
	// them, mirroring Hadoop's slot lifecycle.
	for _, id := range done {
		if id.Type == cluster.MapSlot {
			t.freeMaps++
		} else {
			t.freeReds++
		}
	}
	hb := Heartbeat{
		Tracker:   t.id,
		FreeMaps:  t.freeMaps,
		FreeReds:  t.freeReds,
		Completed: done,
	}
	t.mu.Unlock()

	assignments, err := t.hb(hb)
	if err != nil {
		// A lost heartbeat drops this round's completions on the floor in
		// real Hadoop too; re-queue them so the next beat reports them.
		t.mu.Lock()
		for _, id := range hb.Completed {
			if id.Type == cluster.MapSlot {
				t.freeMaps--
			} else {
				t.freeReds--
			}
		}
		t.completed = append(t.completed, hb.Completed...)
		t.mu.Unlock()
		return
	}

	t.mu.Lock()
	for _, a := range assignments {
		if a.ID.Type == cluster.MapSlot {
			t.freeMaps--
		} else {
			t.freeReds--
		}
		t.launch(ctx, a)
	}
	t.mu.Unlock()
}

// launch executes one task: sleep for its wall duration (or until shutdown),
// then queue the completion for the next heartbeat. Even on shutdown the
// completion is recorded so slot accounting stays consistent.
func (t *TaskTracker) launch(ctx context.Context, a Assignment) {
	t.tasks.Add(1)
	go func() {
		defer t.tasks.Done()
		timer := time.NewTimer(a.WallTime)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
		}
		t.mu.Lock()
		t.completed = append(t.completed, a.ID)
		t.mu.Unlock()
	}()
}
