package service

import (
	"container/heap"
	"time"
)

// jobQueue is the priority queue of pending executions: higher Priority
// first, FIFO within a priority level (ordered by admission sequence).
// Submit bounds it, refusing new work at QueueCapacity with HTTP 429
// backpressure before anything is journaled; Push itself always admits,
// so an execution that was admitted once (coming back off a dying backend
// for failover, or recovered from the journal) is never lost to
// backpressure meant for new submissions. It keeps its original admission
// sequence, so it sorts ahead of everything submitted after it.
//
// The queue is not self-synchronising; the Server's mutex guards it.
type jobQueue struct {
	items execHeap
}

// Len reports the queue depth.
func (q *jobQueue) Len() int { return len(q.items) }

// Push queues an execution and stamps its enqueue time for sojourn aging.
func (q *jobQueue) Push(ex *execution) {
	ex.enqueuedAt = time.Now()
	heap.Push(&q.items, ex)
}

// OldestEnqueue returns the earliest enqueue time of any queued
// execution — the queue's head-of-line sojourn anchor — or the zero time
// when the queue is empty. O(n) over a bounded queue.
func (q *jobQueue) OldestEnqueue() time.Time {
	var oldest time.Time
	for _, ex := range q.items {
		if oldest.IsZero() || ex.enqueuedAt.Before(oldest) {
			oldest = ex.enqueuedAt
		}
	}
	return oldest
}

// ShedLowest removes and returns the execution overload shedding should
// drop first: the lowest priority, and within that the most recently
// admitted (tail drop — the oldest job of a class has waited longest and
// is closest to dispatch). High-priority (positive-priority) work is
// never shed: once only positive-priority jobs remain, aging stops and
// the daemon degrades into a high-priority-only service instead of a
// uniformly lossy one. Nil when the queue is empty or all-high-priority.
func (q *jobQueue) ShedLowest() *execution {
	var victim *execution
	for _, ex := range q.items {
		if ex.priority > 0 {
			continue
		}
		if victim == nil || ex.priority < victim.priority ||
			(ex.priority == victim.priority && ex.seq > victim.seq) {
			victim = ex
		}
	}
	if victim != nil {
		heap.Remove(&q.items, victim.queueIndex)
	}
	return victim
}

// TakeExpired removes and returns every queued execution whose deadline
// has already passed: work whose caller has given up must never consume
// a worker slot.
func (q *jobQueue) TakeExpired(now time.Time) []*execution {
	var expired []*execution
	for _, ex := range q.items {
		if !ex.deadline.IsZero() && !now.Before(ex.deadline) {
			expired = append(expired, ex)
		}
	}
	for _, ex := range expired {
		heap.Remove(&q.items, ex.queueIndex)
	}
	return expired
}

// Pop removes and returns the highest-priority execution, or nil.
func (q *jobQueue) Pop() *execution {
	if len(q.items) == 0 {
		return nil
	}
	return heap.Pop(&q.items).(*execution)
}

// Remove detaches a queued execution (cancellation), reporting whether it
// was actually queued.
func (q *jobQueue) Remove(ex *execution) bool {
	if ex.queueIndex < 0 || ex.queueIndex >= len(q.items) || q.items[ex.queueIndex] != ex {
		return false
	}
	heap.Remove(&q.items, ex.queueIndex)
	return true
}

// execHeap implements container/heap ordering: max priority, then min
// admission sequence.
type execHeap []*execution

func (h execHeap) Len() int { return len(h) }
func (h execHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h execHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].queueIndex = i
	h[j].queueIndex = j
}
func (h *execHeap) Push(x any) {
	ex := x.(*execution)
	ex.queueIndex = len(*h)
	*h = append(*h, ex)
}
func (h *execHeap) Pop() any {
	old := *h
	n := len(old)
	ex := old[n-1]
	old[n-1] = nil
	ex.queueIndex = -1
	*h = old[:n-1]
	return ex
}
