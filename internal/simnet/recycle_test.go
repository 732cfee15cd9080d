package simnet

import (
	"fmt"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/machine"
)

// TestQueueRecycling: a drained inbound queue gives its backing array to the
// receiving shard's free list, the next push to another empty queue of that
// shard takes it from there, and messages queued more than one deep on a
// link still come out in FIFO order through the recycled arrays.
func TestQueueRecycling(t *testing.T) {
	sh := &shard{}
	var a, b inQueue
	for i := 1; i <= 3; i++ {
		a.push(sh).at = float64(i)
	}
	first := &a.buf[0]
	for i := 1; i <= 3; i++ {
		if a.empty() || a.front().at != float64(i) {
			t.Fatalf("pop %d: queue out of FIFO order", i)
		}
		a.pop(sh)
	}
	if a.buf != nil || a.head != 0 || !a.empty() {
		t.Fatalf("drained queue keeps buf %p (len %d), head %d", a.buf, len(a.buf), a.head)
	}
	if len(sh.free) != 1 || &sh.free[0][:1][0] != first {
		t.Fatalf("free list holds %d arrays, want the drained one", len(sh.free))
	}
	b.push(sh).at = 7
	if &b.buf[0] != first || len(sh.free) != 0 {
		t.Fatal("push to an empty queue did not take the array from the free list")
	}
	if b.buf[0].msg.Data != nil || b.front().at != 7 {
		t.Fatal("recycled slot was not handed out clean")
	}
	a.push(sh) // free list empty: a fresh array
	if &a.buf[0] == first {
		t.Fatal("two live queues share one array")
	}
}

// TestQueueReusesPoppedHead: a link refilled before it drains keeps FIFO
// order and stops growing once its buffer covers the live arrivals — the
// popped head is reused, not doubled past — and the slots it slid away from
// hold no message.
func TestQueueReusesPoppedHead(t *testing.T) {
	sh := &shard{}
	var q inQueue
	pushed, popped := 0, 0
	clean := func() {
		for i, a := range q.buf[:cap(q.buf)] {
			if (i < q.head || i >= len(q.buf)) && a.msg.Data != nil {
				t.Fatalf("after %d pushes slot %d, outside the live range [%d,%d), still references a message", pushed, i, q.head, len(q.buf))
			}
		}
	}
	push := func() {
		a := q.push(sh)
		clean()
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
	if cap(q.buf) > 16 {
		t.Errorf("queue of at most 5 live arrivals grew to %d slots over %d pushes", cap(q.buf), pushed)
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
			if q := &nd.queues[0]; q.buf != nil {
				nd.Fail(fmt.Errorf("P=%d: drained queue keeps its array", p))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		free := len(e.nodes[0].sh.free)
		if e.nodes[1].sh != e.nodes[0].sh {
			free += len(e.nodes[1].sh.free)
		}
		if free != 2 {
			t.Fatalf("P=%d: %d arrays on the free lists, want one per link used", p, free)
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
