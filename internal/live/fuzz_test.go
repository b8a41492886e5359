package live

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"net"
	"net/rpc"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// reportBytes decodes fuzz input; reading past the end yields zeros.
type reportBytes []byte

func (r *reportBytes) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	c := (*r)[0]
	*r = (*r)[1:]
	return c
}

// int reads one byte as a small signed number, with 0x7f and 0x80 standing
// for the ends of the int range, so counts and ids can be negative or huge.
func (r *reportBytes) int() int {
	switch c := r.byte(); c {
	case 0x7f:
		return math.MaxInt
	case 0x80:
		return math.MinInt
	default:
		return int(int8(c))
	}
}

// FuzzHeartbeatReports feeds arbitrary TaskTracker reports to a WOHA
// tracker with two workflows. The bytes decode into heartbeats whose tracker
// id and free-slot counts are unchecked numbers and whose completions either
// echo a task the tracker assigned earlier (so real work retires, possibly
// more than once) or name any workflow, job, slot type and sequence number.
// Nothing may panic; every assignment must name a real job and slot type and
// no (workflow, job, type) may be handed out more tasks than it has; and
// afterwards no counter may be negative and no job may have finished more
// tasks than it holds.
func FuzzHeartbeatReports(f *testing.F) {
	flows := []*workflow.Workflow{
		workflow.NewBuilder("chain").
			Job("a", 3, 2, 10*time.Second, 20*time.Second).
			Job("b", 2, 1, 10*time.Second, 20*time.Second, "a").
			MustBuild(simtime.Epoch, simtime.Epoch.Add(time.Hour)),
		workflow.NewBuilder("single").
			Job("c", 4, 1, 10*time.Second, 10*time.Second).
			MustBuild(simtime.Epoch, simtime.Epoch.Add(30*time.Minute)),
	}
	plans := make([]*plan.Plan, len(flows))
	for i, w := range flows {
		p, err := plan.GenerateCapped(w, 8, priority.LPF{})
		if err != nil {
			f.Fatal(err)
		}
		plans[i] = p
	}
	// Each heartbeat is tracker, free maps, free reduces, a completion count
	// (mod 4), then per completion a selector byte: even echoes assigned
	// task selector/2, odd is followed by workflow, job, type and sequence.
	f.Add([]byte{0, 4, 4, 0, 1, 0, 0, 2, 0, 2, 0, 0, 3, 0, 2, 4})
	f.Add([]byte{0x7f, 0x7f, 0x7f, 0, 0x80, 0x80, 0x80, 3, 1, 7, 0, 0, 0, 1, 0, 9, 1, 0, 1, 0, 2, 0x7f, 0})
	f.Add([]byte{1, 2, 0, 0, 1, 2, 0, 2, 0, 0, 1, 0, 0, 2, 1, 1, 0, 0, 1, 0, 4, 4, 1, 0, 0, 0, 0, 3, 0, 2, 4, 0, 3, 3})
	// A drain: each beat offers two slots of each type and, after the first,
	// reports the next three tasks assigned, in assignment order.
	drain := []byte{0, 2, 2, 0}
	for k := 0; k < 24; k++ {
		drain = append(drain, byte(k%2), 2, 2, 3, byte(6*k), byte(6*k+2), byte(6*k+4))
	}
	f.Add(drain)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := New(Config{
			Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 2,
			HeartbeatInterval: time.Millisecond, TimeScale: 0.0002,
		}, core.NewScheduler(core.Options{Seed: 1}))
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range flows {
			if err := c.Submit(w, plans[i]); err != nil {
				t.Fatal(err)
			}
		}
		type slot struct {
			wf  int
			job workflow.JobID
			typ cluster.SlotType
		}
		handed := map[slot]int{}
		var assigned []TaskID
		r := reportBytes(data)
		for beat := 0; len(r) > 0 && beat < 256; beat++ {
			hb := Heartbeat{Tracker: r.int(), FreeMaps: r.int(), FreeReds: r.int()}
			for n := r.byte() % 4; n > 0; n-- {
				if sel := r.byte(); sel%2 == 0 && len(assigned) > 0 {
					hb.Completed = append(hb.Completed, assigned[int(sel/2)%len(assigned)])
				} else {
					hb.Completed = append(hb.Completed, TaskID{
						Workflow: r.int(), Job: workflow.JobID(r.int()),
						Type: cluster.SlotType(r.int()), Seq: r.int(),
					})
				}
			}
			for _, a := range c.DeliverHeartbeat(hb) {
				id := a.ID
				if id.Workflow < 0 || id.Workflow >= len(flows) || id.Job < 0 || int(id.Job) >= len(flows[id.Workflow].Jobs) {
					t.Fatalf("heartbeat %d: assignment %+v names no job", beat, id)
				}
				job := &flows[id.Workflow].Jobs[id.Job]
				tasks := job.Maps
				switch id.Type {
				case cluster.MapSlot:
				case cluster.ReduceSlot:
					tasks = job.Reduces
				default:
					t.Fatalf("heartbeat %d: assignment %+v has slot type %d", beat, id, id.Type)
				}
				k := slot{id.Workflow, id.Job, id.Type}
				if handed[k]++; handed[k] > tasks {
					t.Fatalf("heartbeat %d: %d tasks of %+v handed out, it has %d", beat, handed[k], k, tasks)
				}
				assigned = append(assigned, id)
			}
		}
		st := c.jt
		for i, w := range flows {
			got := st.counters(i)
			if got.Scheduled < 0 || got.Running < 0 || got.Remaining < 0 {
				t.Errorf("workflow %d: scheduled %d, running %d, remaining %d, want none negative", i, got.Scheduled, got.Running, got.Remaining)
			}
			for j, js := range got.Jobs {
				job := &w.Jobs[j]
				if js.PendingMaps < 0 || js.RunningMaps < 0 || js.PendingReduces < 0 || js.RunningReduces < 0 {
					t.Errorf("workflow %d job %d: negative count in %+v", i, j, js)
				}
				if js.DoneMaps > job.Maps || js.DoneReduces > job.Reduces {
					t.Errorf("workflow %d job %d: done %d maps / %d reduces of %d / %d", i, j, js.DoneMaps, js.DoneReduces, job.Maps, job.Reduces)
				}
			}
		}
	})
}

// heartbeatDeadline bounds each wait of FuzzFrameDecode, as the parity
// harness bounds each cell: a server that never gives a connection up fails
// the input by name instead of the package at go test's -timeout. A
// heartbeat takes microseconds; the bound is for a slow race run.
const heartbeatDeadline = 2 * time.Second

// FuzzFrameDecode feeds raw bytes to the JobTracker's net/rpc server over an
// in-memory pipe, as a TaskTracker's connection would carry them: gob frames
// that may be truncated or malformed, or well-formed calls carrying any
// report. Nothing may panic, and once the bytes end the server must give the
// connection up, by an error or by closing it, within heartbeatDeadline. A
// well-formed JobTracker.Heartbeat call on a fresh pipe must then still be
// served.
func FuzzFrameDecode(f *testing.F) {
	frame := func(method string, seq uint64, body any) []byte {
		var b bytes.Buffer
		enc := gob.NewEncoder(&b)
		if err := enc.Encode(&rpc.Request{ServiceMethod: method, Seq: seq}); err != nil {
			f.Fatal(err)
		}
		if err := enc.Encode(body); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	call := frame("JobTracker.Heartbeat", 1, Heartbeat{FreeMaps: 2, FreeReds: 1})
	f.Add(call)
	f.Add(call[:len(call)/2])
	f.Add(append(append([]byte(nil), call...), 0xff, 0x00, 0x13))
	f.Add(frame("JobTracker.Missing", 2, Heartbeat{}))
	f.Add(frame("JobTracker.Heartbeat", 3, Heartbeat{
		Tracker: -1, FreeMaps: math.MaxInt, FreeReds: math.MinInt,
		Completed: []TaskID{{Workflow: 9, Job: -2, Type: 7}},
	}))
	f.Add(frame("JobTracker.Heartbeat", 4, "not a heartbeat"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 9))
	w := workflow.NewBuilder("w").
		Job("a", 3, 1, 10*time.Second, 20*time.Second).
		MustBuild(simtime.Epoch, simtime.Epoch.Add(time.Hour))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := New(Config{
			Nodes: 1, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
			HeartbeatInterval: time.Millisecond, TimeScale: 0.0002,
		}, scheduler.NewFIFO())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Submit(w, nil); err != nil {
			t.Fatal(err)
		}
		srv, err := c.rpcServer()
		if err != nil {
			t.Fatal(err)
		}

		// The replies are drained so that the server never blocks writing
		// one; a write that fails means the server has closed its end.
		raw, conn := net.Pipe()
		served := make(chan struct{})
		go func() {
			srv.ServeConn(conn)
			close(served)
		}()
		go func() { _, _ = io.Copy(io.Discard, raw) }()
		_, _ = raw.Write(data)
		raw.Close()
		select {
		case <-served:
		case <-time.After(heartbeatDeadline):
			t.Fatalf("the server still holds the connection %v after its input ended", heartbeatDeadline)
		}

		cli, conn := net.Pipe()
		go srv.ServeConn(conn)
		client := rpc.NewClient(cli)
		defer client.Close()
		reply := client.Go("JobTracker.Heartbeat", Heartbeat{FreeMaps: 1}, new([]Assignment), nil)
		select {
		case <-reply.Done:
			if reply.Error != nil {
				t.Fatalf("a well-formed heartbeat on a fresh pipe failed: %v", reply.Error)
			}
		case <-time.After(heartbeatDeadline):
			t.Fatal("a well-formed heartbeat on a fresh pipe went unanswered")
		}
	})
}
