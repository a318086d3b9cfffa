package exec

import (
	"context"
	"fmt"
	"runtime"
)

// PickRule names the thread a Sched hands the baton to.
type PickRule uint8

const (
	// LowestClock picks the runnable thread with the lowest clock, ties
	// to the lower tid: the simulator's virtual-time order.
	LowestClock PickRule = iota
	// RoundRobin picks the first runnable thread after the holder in tid
	// order, wrapping: the race checker's interleaving.
	RoundRobin
)

// NoLimit is the Limit of a thread that may run until it blocks, and
// the clock entry of a thread that cannot take the baton.
const NoLimit = ^uint64(0)

// Sched is the baton scheduler of one run on a model platform (the
// simulator and the race checker): it runs exactly one thread at a time.
// Each thread keeps its goroutine, so kernels stay straight-line Go, but
// only the holder of the baton runs; the others wait on their wake
// channel. The holder hands the baton on itself, to the thread the
// PickRule names, when it yields, blocks on a held lock or an incomplete
// barrier, or ends. A channel hand-off orders every update one holder
// makes before the next holder's, so a platform's model needs no lock or
// atomic, and what a run computes depends on its inputs alone: it
// repeats bit for bit, at any GOMAXPROCS.
//
// Only the baton holder reads or writes a Sched or its seats.
type Sched struct {
	name   string // the platform's, prefixing the run's errors
	cause  context.Context
	rule   PickRule
	window uint64
	seats  []*Seat
	// clock[t] is thread t's clock while it waits for the baton and
	// NoLimit while it is blocked or ended; the holder's own entry is
	// stale until it passes the baton.
	clock    []uint64
	left     int           // threads that have not ended
	aborted  bool          // the run ends early, with err
	err      error         // the run's first failure
	finished chan struct{} // closed by the last thread to end
}

// Seat is one thread's place in a Sched. A platform embeds one in its
// per-thread context and hands their addresses to Run.
type Seat struct {
	s    *Sched
	tid  int
	at   uint64        // the clock this thread blocked at
	wake chan struct{} // the baton, when it is handed to this thread
	lock *SchedLock    // the held lock this thread waits for
	bar  *SchedBarrier // the barrier this thread waits at
	exit bool          // woken to end: its barrier was aborted, or the run deadlocked
}

// NewSched returns the scheduler of one run under cause, which Poll and
// a barrier's last arrival check. window is LowestClock's (see Limit);
// RoundRobin takes 0.
func NewSched(name string, cause context.Context, rule PickRule, window uint64) *Sched {
	return &Sched{name: name, cause: cause, rule: rule, window: window}
}

// Run runs body(tid) on one goroutine per seat, thread 0 holding the
// baton first, and returns once every thread has ended: nil, or the
// run's first failure — the run context's error once a poll saw it
// canceled, a deadlock, or an unlock by a thread that does not hold
// the lock.
func (s *Sched) Run(seats []*Seat, body func(tid int)) error {
	s.seats, s.clock, s.left = seats, make([]uint64, len(seats)), len(seats)
	s.finished = make(chan struct{})
	for t, st := range seats {
		*st = Seat{s: s, tid: t, wake: make(chan struct{}, 1)}
		go func() {
			// Deferred: an aborted barrier or a deadlock ends the thread.
			defer s.end(st)
			<-st.wake
			body(t)
		}()
	}
	seats[0].wake <- struct{}{}
	<-s.finished
	return s.err
}

// Aborted reports whether the run ends early: a poll saw the run
// context canceled, or a thread unlocked a lock it does not hold.
func (s *Sched) Aborted() bool { return s.aborted }

// end retires st's thread and hands the baton on, or reports the run
// finished when st was the last.
func (s *Sched) end(st *Seat) {
	s.clock[st.tid] = NoLimit
	s.left--
	if next := s.next(st.tid); next != nil {
		next.wake <- struct{}{}
	} else {
		close(s.finished)
	}
}

// next returns the seat the baton goes to from thread tid. Blocked
// threads with no runnable one left are a deadlock, which ends them all.
// It returns nil once every thread has ended.
func (s *Sched) next(tid int) *Seat {
	for {
		if t := s.pick(tid); t >= 0 {
			return s.seats[t]
		}
		if s.left == 0 {
			return nil
		}
		var stuck []int
		for _, st := range s.seats {
			if st.lock != nil || st.bar != nil {
				stuck = append(stuck, st.tid)
			}
		}
		s.fail(fmt.Errorf("%s: deadlock: threads %v blocked on locks or barriers", s.name, stuck))
		s.release(true)
	}
}

// pick applies the rule: the runnable thread it names, or -1 if none is.
func (s *Sched) pick(tid int) int {
	n := len(s.clock)
	if s.rule == RoundRobin {
		for i := 1; i <= n; i++ {
			if t := (tid + i) % n; s.clock[t] != NoLimit {
				return t
			}
		}
		return -1
	}
	best, low := -1, NoLimit
	for t, v := range s.clock {
		if v < low {
			best, low = t, v
		}
	}
	return best
}

func (s *Sched) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// abort ends the run early with err: barrier waiters end, and so does
// every later arrival.
func (s *Sched) abort(err error) {
	if !s.aborted {
		s.aborted = true
		s.fail(err)
		s.release(false)
	}
}

// release makes every thread blocked at a barrier (and, with locks, on a
// lock) runnable at the clock it blocked at, to end when it next holds
// the baton. A barrier waiter withdraws its arrival, so a barrier reused
// by a later run still needs every party.
func (s *Sched) release(locks bool) {
	for _, st := range s.seats {
		switch {
		case st.bar != nil:
			st.bar.waiting = st.bar.waiting[:0]
		case locks && st.lock != nil:
			st.lock.waiters = st.lock.waiters[:0]
		default:
			continue
		}
		st.bar, st.lock, st.exit = nil, nil, true
		s.clock[st.tid] = st.at
	}
}

// TID returns the seat's thread index.
func (st *Seat) TID() int { return st.tid }

// Yield hands the baton to the thread the rule picks, this thread
// waiting at clock now, and returns once it comes back.
func (st *Seat) Yield(now uint64) {
	st.s.clock[st.tid] = now
	st.switchTo(st.s.next(st.tid))
}

// block waits, off the baton, until another thread makes this one
// runnable again; a thread released to end ends here.
func (st *Seat) block(now uint64) {
	st.at = now
	st.s.clock[st.tid] = NoLimit
	st.switchTo(st.s.next(st.tid))
	if st.exit {
		runtime.Goexit()
	}
}

// switchTo hands the baton from st to next, unless they are the same
// thread, and waits until it comes back.
func (st *Seat) switchTo(next *Seat) {
	if next != st {
		next.wake <- struct{}{}
		<-st.wake
	}
}

// Limit is the clock past which the holder passes the baton on under
// LowestClock: window beyond the lowest clock of the other runnable
// threads. It is NoLimit with a zero window, under RoundRobin, or when
// no other thread can run. It moves whenever the baton comes back or
// the holder makes a thread runnable, so a platform that checks it
// rereads it then.
func (st *Seat) Limit() uint64 {
	s := st.s
	if s.window == 0 || s.rule == RoundRobin {
		return NoLimit
	}
	low := NoLimit
	for t, v := range s.clock {
		if v < low && t != st.tid {
			low = v
		}
	}
	if low == NoLimit {
		return NoLimit
	}
	return low + s.window
}

// Poll is a non-blocking poll of the run context. Once the context is
// canceled the run is aborted — every barrier waiter ends, and so does
// every later arrival — and Poll returns its error.
func (st *Seat) Poll() error {
	err := st.s.cause.Err()
	if err != nil {
		st.s.abort(err)
	}
	return err
}

// SchedLock is the lock of a model platform. A held lock is handed to
// its waiters in arrival order. The zero value is an unheld lock.
type SchedLock struct {
	held    bool
	holder  int
	waiters []int
}

// Acquire takes l at clock now, waiting off the baton while another
// thread holds it, and reports whether it waited. A waiter of a
// deadlocked run ends here.
func (st *Seat) Acquire(l *SchedLock, now uint64) (waited bool) {
	if !l.held {
		l.held, l.holder = true, st.tid
		return false
	}
	l.waiters = append(l.waiters, st.tid)
	st.lock = l
	st.block(now)
	return true
}

// Release releases l, handing it to its first waiter, if any, which
// becomes runnable at the clock it blocked at; it reports whether it
// handed l on. A thread that does not hold l aborts the run and ends.
func (st *Seat) Release(l *SchedLock) (handed bool) {
	s := st.s
	if !l.held || l.holder != st.tid {
		s.abort(fmt.Errorf("%s: T%d unlocks a lock it does not hold", s.name, st.tid))
		runtime.Goexit()
	}
	if len(l.waiters) == 0 {
		l.held = false
		return false
	}
	u := s.seats[l.waiters[0]]
	l.waiters = l.waiters[:copy(l.waiters, l.waiters[1:])]
	l.holder, u.lock = u.tid, nil
	s.clock[u.tid] = u.at
	return true
}

// SchedBarrier is the reusable barrier of a model platform.
type SchedBarrier struct {
	parties int
	waiting []int // this generation's arrivals, in arrival order
}

// NewSchedBarrier returns a barrier for the given number of parties.
func NewSchedBarrier(parties int) *SchedBarrier {
	if parties < 1 {
		panic("exec: barrier needs at least one party")
	}
	return &SchedBarrier{parties: parties}
}

// Arrive joins b's current generation at clock now. It is the run's
// cancellation point: the last arrival polls the run context, and in an
// aborted run Arrive never returns but ends the thread, after withdrawing
// its arrival. Any other arrival waits off the baton and returns nil once
// the generation is released. The last returns the generation's
// arrivals, itself last, to reconcile before it calls Open.
func (st *Seat) Arrive(b *SchedBarrier, now uint64) []int {
	s := st.s
	if s.aborted {
		runtime.Goexit()
	}
	b.waiting = append(b.waiting, st.tid)
	if len(b.waiting) < b.parties {
		st.bar = b
		st.block(now)
		return nil
	}
	if err := s.cause.Err(); err != nil {
		b.waiting = b.waiting[:len(b.waiting)-1]
		s.abort(err)
		runtime.Goexit()
	}
	return b.waiting
}

// Open releases the generation whose arrivals Arrive returned: every
// other arrival becomes runnable at clock at, and b starts its next
// generation.
func (st *Seat) Open(b *SchedBarrier, at uint64) {
	s := st.s
	for _, t := range b.waiting {
		if u := s.seats[t]; u != st {
			u.bar = nil
			s.clock[t] = at
		}
	}
	b.waiting = b.waiting[:0]
}
