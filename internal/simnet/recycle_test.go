package simnet

import (
	"fmt"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/machine"
)

// TestQueueRecycling: a link refilled before it drains keeps FIFO order,
// and a shard whose queues never hold more than five arrivals at once takes
// at most five slots over 3,002 pushes — all of them from its first chunk —
// because every pop hands its slot back for the next push.
func TestQueueRecycling(t *testing.T) {
	sh := &shard{}
	var q inQueue
	pushed, popped := 0, 0
	push := func() {
		a := q.push(sh)
		if a.msg.Data != nil || a.next != nil {
			t.Fatalf("push %d: slot handed out holding a message or a link", pushed)
		}
		a.at, a.msg.Data = float64(pushed), make([]float64, 1)
		pushed++
	}
	push()
	push()
	for range 1000 { // two to five arrivals live, never empty
		push()
		push()
		push()
		for range 3 {
			if q.front().at != float64(popped) {
				t.Fatalf("pop %d: got arrival %v, queue out of FIFO order", popped, q.front().at)
			}
			q.pop(sh)
			popped++
		}
	}
	if pushed != 3002 {
		t.Fatalf("%d pushes, want 3002", pushed)
	}
	if sh.grow != minChunk {
		t.Fatalf("shard grew to a %d-slot chunk; one %d-slot chunk covers 5 live arrivals", sh.grow, minChunk)
	}
	if carved := minChunk - len(sh.chunk); carved > 5 {
		t.Errorf("queue of at most 5 live arrivals took %d slots over %d pushes", carved, pushed)
	}
}

// TestQueueReusesPoppedHead: the slot a pop releases is the slot the next
// push in that shard takes, whichever queue pushes; a released slot
// references no message; and a second live queue never shares a slot.
func TestQueueReusesPoppedHead(t *testing.T) {
	sh := &shard{}
	var a, b inQueue
	for i := 1; i <= 3; i++ {
		s := a.push(sh)
		s.at, s.msg.Data = float64(i), make([]float64, 1)
	}
	for i := 1; i <= 3; i++ {
		head := a.front()
		if a.empty() || head.at != float64(i) {
			t.Fatalf("pop %d: queue out of FIFO order", i)
		}
		a.pop(sh)
		if head.msg.Data != nil || head.at != 0 {
			t.Fatalf("pop %d: released slot still references its message", i)
		}
		if sh.free != head {
			t.Fatalf("pop %d: released slot is not the head of the free list", i)
		}
		if got := b.push(sh); got != head {
			t.Fatalf("pop %d: next push took slot %p, not the popped %p", i, got, head)
		}
	}
	if !a.empty() || a.tail != nil {
		t.Fatal("drained queue still links a slot")
	}
	if sh.free != nil {
		t.Fatal("free list not empty after every released slot was retaken")
	}
	fresh := a.push(sh) // free list empty: a slot from the chunk
	live := 0
	for s := b.front(); s != nil; s = s.next {
		if s == fresh {
			t.Fatal("two live queues share one slot")
		}
		live++
	}
	if live != 3 || b.tail.next != nil {
		t.Fatalf("refilled queue links %d slots, want 3", live)
	}
}

// TestNodeReleasesPayloads: once Send returns the node's pending op holds no
// reference to the payload (ownership moved to the receiver), and once Recv
// returns neither the node nor the drained queue does — so a buffer the
// program goes on to Recycle is not pinned, or read, through the engine.
func TestNodeReleasesPayloads(t *testing.T) {
	for _, p := range []int{1, 2} { // intra-shard delivery, and through the outbox
		e := ideal(t, 1, machine.OnePort)
		e.SetShards(p)
		err := e.Run(func(fn fabric.Node) {
			nd := fn.(*Node)
			held := func() bool { return nd.pending.msg.Data != nil || nd.pending.msg.Parts != nil }
			for i := 0; i < 3; i++ {
				nd.Send(0, fabric.Msg{Data: nd.AllocData(4), Parts: nd.AllocParts(1)})
				if held() {
					nd.Fail(fmt.Errorf("P=%d: pending op still holds the sent payload", p))
				}
			}
			for i := 0; i < 3; i++ {
				m := nd.Recv(0)
				if len(m.Data) != 4 || len(m.Parts) != 1 {
					nd.Fail(fmt.Errorf("P=%d: received %d elements, %d parts", p, len(m.Data), len(m.Parts)))
				}
				if held() {
					nd.Fail(fmt.Errorf("P=%d: node still holds the received payload", p))
				}
				nd.Recycle(m)
			}
			if q := &nd.queues[0]; q.head != nil || q.tail != nil {
				nd.Fail(fmt.Errorf("P=%d: drained queue still links a slot", p))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		// Every slot the run took is back on its shard's free list, holding
		// no message: the drained queues pin nothing.
		shards := []*shard{e.nodes[0].sh}
		if e.nodes[1].sh != e.nodes[0].sh {
			shards = append(shards, e.nodes[1].sh)
		}
		for _, sh := range shards {
			free := 0
			for a := sh.free; a != nil; a = a.next {
				if a.msg.Data != nil || a.msg.Parts != nil {
					t.Fatalf("P=%d: a released slot still references a message", p)
				}
				free++
			}
			if carved := sh.grow - len(sh.chunk); free != carved || free == 0 {
				t.Fatalf("P=%d: shard %d took %d slots, %d are back on its free list", p, sh.id, carved, free)
			}
		}
	}
}

// TestOutboxPresized: an outbox is presized to the directed links leaving
// its shard, and a 12-cube dimension scan — every link crossing shards
// carries a message each pass — never grows one past that capacity, because
// a link carries at most one nonempty send per epoch.
func TestOutboxPresized(t *testing.T) {
	for _, p := range []int{2, 4} {
		e := ideal(t, 12, machine.OnePort)
		e.SetShards(p)
		err := e.Run(func(nd fabric.Node) {
			for rep := 0; rep < 2; rep++ {
				for d := nd.Dims() - 1; d >= 0; d-- {
					nd.Recycle(nd.Exchange(d, fabric.Msg{Data: nd.AllocData(4)}))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		leaving := map[*shard]int{}
		for i, nd := range e.nodes {
			for d := range e.n {
				if e.nodes[i^1<<uint(d)].sh != nd.sh {
					leaving[nd.sh]++
				}
			}
		}
		if len(leaving) != p {
			t.Fatalf("P=%d: links leave %d shards", p, len(leaving))
		}
		for sh, want := range leaving {
			if got := cap(sh.out); got != want {
				t.Errorf("P=%d: shard %d outbox capacity %d, want the %d links leaving it", p, sh.id, got, want)
			}
		}
	}
}
