package mpi

import (
	"strings"
	"testing"
	"time"
)

// TestWaitingReceiveAllocatesNothing pins the one-waiter mailbox: an
// in-process ping-pong whose receives wait for their message allocates
// nothing per round trip. The mailbox it replaced queued a fresh ticket and
// channel for every receive that waited, 6 allocations per round trip.
func TestWaitingReceiveAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	var ping any = []float64{1}
	var allocs float64
	err := Run(2, func(w *Comm) {
		if w.Rank() == 0 {
			allocs = testing.AllocsPerRun(2000, func() {
				w.Send(1, 0, ping)
				w.Recv(1, 0)
			})
			w.Send(1, 0, nil)
			return
		}
		for {
			v := w.Recv(0, 0)
			if v == nil {
				return
			}
			w.Send(0, 0, v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("ping-pong allocates %v times per round trip, want 0", allocs)
	}
}

// TestSecondWaitingReceivePanics: a Comm handle belongs to one goroutine,
// so a second receive while one waits on the same mailbox is a misuse. It
// panics naming the communicator and rank, and the first receive still
// completes.
func TestSecondWaitingReceivePanics(t *testing.T) {
	err := Run(2, func(w *Comm) {
		if w.Rank() == 1 {
			w.Recv(0, 7)
			w.Send(0, 5, "first")
			return
		}
		got := make(chan any, 1)
		go func() { got <- w.Recv(1, 5) }()
		if !awaitWaiter(w.state.boxes[0]) {
			t.Error("first receive never waited")
			return
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, `communicator "world" rank 0`) {
					t.Errorf("second receive: recovered %q, want a panic naming the communicator and rank", msg)
				}
			}()
			w.Recv(1, 6)
		}()
		w.Send(1, 7, "go")
		if v := <-got; v != "first" {
			t.Errorf("first receive got %v", v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTeardownUnwindsWaitingReceive: closing a mailbox under a waiting
// receive unwinds it with a WorldLostError carrying the close cause.
func TestTeardownUnwindsWaitingReceive(t *testing.T) {
	err := Run(1, func(w *Comm) {
		box := w.state.boxes[0]
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			box.take(w, 0, 3)
		}()
		if !awaitWaiter(box) {
			t.Error("receive never waited")
			return
		}
		w.state.world.closeAll(errWorldClosed)
		lost, ok := (<-done).(*WorldLostError)
		if !ok || lost.Cause != errWorldClosed {
			t.Errorf("waiting receive unwound with %v, want a WorldLostError for the teardown", lost)
		}
		// Later puts are dropped and later takes panic at once.
		box.put(message{src: 0, tag: 3})
		func() {
			defer func() {
				if _, ok := recover().(*WorldLostError); !ok {
					t.Error("take on a closed mailbox did not panic with a WorldLostError")
				}
			}()
			box.take(w, 0, 3)
		}()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// awaitWaiter reports whether a receive takes box's waiter slot within 5 s.
func awaitWaiter(box *mailbox) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		box.mu.Lock()
		waiting := box.waiting
		box.mu.Unlock()
		if waiting {
			return true
		}
	}
	return false
}
