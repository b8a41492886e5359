package cluster

import "time"

// LoadWalk is LoadView as it was computed before the simulator kept the view
// current: a walk over every submitted workflow, every job and every node.
// TestLoadViewMatchesWalk holds the maintained view to it.
func (s *Simulator) LoadWalk() Load {
	l := Load{
		At:          s.now,
		MapSlots:    s.cfg.MapSlots(),
		ReduceSlots: s.cfg.ReduceSlots(),
	}
	for _, ws := range s.states {
		if ws.Done {
			continue
		}
		l.ActiveWorkflows++
		l.RunningTasks += ws.RunningTasks
		l.PendingTasks += ws.TasksRemaining() - ws.RunningTasks
		for j := range ws.Jobs {
			js := &ws.Jobs[j]
			spec := &ws.Spec.Jobs[j]
			l.Backlog += time.Duration(js.PendingMaps)*spec.MapTime +
				time.Duration(js.PendingReduces)*spec.ReduceTime
		}
	}
	for i := range s.nodes {
		n := &s.nodes[i]
		if n.down {
			continue
		}
		l.FreeMaps += int(n.freeMap)
		l.FreeReduces += int(n.freeReduce)
	}
	return l
}

// TickHomes counts the armed ticks by where they wait: in due, or in the
// event queue.
func (s *Simulator) TickHomes() (due, queued int) {
	for i := range s.nodes {
		switch {
		case s.due.has(i):
			due++
		case s.nodes[i].hbArmed:
			queued++
		}
	}
	return due, queued
}
