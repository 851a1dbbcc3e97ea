//! Group commit: coalescing concurrent writers into one commit cycle.
//!
//! A WAL commit pays one positioned write plus one fsync regardless of
//! how many records it carries ([`crate::wal::Wal::append_group`]), so
//! the write path wants concurrent callers to share a cycle instead of
//! queueing N fsyncs. [`CommitQueue`] implements the classic
//! leader/follower protocol:
//!
//! 1. every caller enqueues its item under the queue mutex and receives
//!    a ticket;
//! 2. if no leader is active, the caller **becomes** the leader: it
//!    drains the whole pending queue (its own item plus everything that
//!    arrived since the previous cycle), releases the mutex, and runs
//!    the caller-supplied `process` closure over the drained batch —
//!    one WAL group append, one fsync, one index patch;
//! 3. otherwise the caller is a **follower**: it waits on a condvar
//!    until a leader publishes its result (paired positionally with its
//!    ticket) and returns it without ever touching the WAL.
//!
//! Grouping forms exactly when it pays: while a leader is inside
//! `process` (hundreds of microseconds of fsync + patching), arriving
//! writers pile up in `pending` at nanosecond cost, and whichever of
//! them wakes first after publication leads the next cycle with the
//! whole pile.
//!
//! **Leader death.** `process` runs caller code and may panic. A
//! [`DeathGuard`] armed around the call marks every drained ticket as
//! done-with-`None` during unwinding, clears the leader flag, and wakes
//! all waiters: followers whose items were in the dead leader's batch
//! observe `None` (their commit outcome is unknown — exactly the
//! semantics of a torn commit), while followers still in `pending` are
//! untouched and one of them takes over as the next leader. Follower
//! waits start with a few *timed* rechecks — a missed wakeup or a
//! stalled leader degrades to a periodic re-check instead of a hang —
//! then fall back to an untimed wait, which is safe because every
//! leader exit path (publication or `DeathGuard` unwinding) notifies
//! the condvar while the recheck runs under the queue mutex, so no
//! wakeup can be lost. Bounding the timed phase also keeps the loop
//! finite under `bgi-check` simulation, where an armed timeout is
//! eligible to fire at every schedule point: the checker explores each
//! timeout-driven takeover edge without the recheck loop itself
//! becoming a livelock.
//!
//! The queue is deliberately generic over item and result types — it
//! knows nothing about WALs — so the model tests can drive it with
//! plain integers while bgi-service commits whole update batches
//! through it.

use bgi_check::sync::{thread, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How long a follower waits before re-checking the queue state. Purely
/// a lost-wakeup / stalled-leader backstop: publication normally wakes
/// followers via the condvar immediately.
const FOLLOWER_RECHECK: Duration = Duration::from_millis(10);

/// How long a leader holds its cycle open for stragglers when the
/// *previous* cycle was larger than what it drained (see
/// [`CommitQueue::commit`]). Small against the cost of a cycle (an
/// fsync alone is tens of times longer) but ample for a writer that
/// just picked up its previous result to re-enqueue.
const FORMATION_WINDOW: Duration = Duration::from_micros(500);

/// How many consecutive timed rechecks a follower performs before
/// switching to an untimed wait. Keeps the recheck loop finite under
/// simulation (see the module docs) while still giving real followers
/// a brief self-service window against stalled leaders.
const FOLLOWER_TIMED_RECHECKS: u32 = 3;

/// A leader/follower commit queue; see the module docs for the
/// protocol.
pub struct CommitQueue<T, R> {
    state: Mutex<State<T, R>>,
    cv: Condvar,
}

struct State<T, R> {
    next_ticket: u64,
    /// Items waiting for a leader, in arrival order.
    pending: Vec<(u64, T)>,
    /// Published results awaiting pickup by their follower. `None`
    /// means the leader died mid-cycle with this ticket in its batch.
    done: Vec<(u64, Option<R>)>,
    /// True while some caller is inside `process`.
    leader: bool,
    /// Size of the most recent published group — the concurrency hint
    /// behind the formation window (see [`CommitQueue::commit`]).
    last_group: usize,
}

impl<T, R> Default for CommitQueue<T, R> {
    fn default() -> Self {
        CommitQueue::new()
    }
}

impl<T, R> CommitQueue<T, R> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CommitQueue {
            state: Mutex::new(State {
                next_ticket: 0,
                pending: Vec::new(),
                done: Vec::new(),
                leader: false,
                last_group: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Commits `item` through the group protocol. Exactly one of the
    /// concurrent callers runs `process` over the drained batch (in
    /// arrival order — the caller's own item is somewhere inside);
    /// `process` must return one result per input item, in order.
    ///
    /// Returns this caller's result, or `None` if the leader handling
    /// its item died (panicked) mid-cycle — the commit outcome is then
    /// unknown, like a client losing its connection mid-commit. If
    /// `process` itself panics while *this* caller is the leader, the
    /// panic propagates after the guard has released the victims.
    pub fn commit<F>(&self, item: T, process: F) -> Option<R>
    where
        F: FnOnce(Vec<T>) -> Vec<R>,
    {
        let mut st = lock(&self.state);
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.pending.push((ticket, item));
        let mut timed_rechecks = 0u32;
        loop {
            if let Some(result) = take_done(&mut st.done, ticket) {
                return result;
            }
            if !st.leader {
                break;
            }
            // Follower: a leader is in flight. Wait for publication —
            // first with a timeout (bounds lost-wakeup / stalled-leader
            // scenarios and gives the model checker takeover edges),
            // then untimed: the recheck above runs under the mutex, so
            // a leader exiting between it and the wait cannot slip a
            // notification past us.
            if timed_rechecks < FOLLOWER_TIMED_RECHECKS {
                let (g, timeout) = self
                    .cv
                    .wait_timeout(st, FOLLOWER_RECHECK)
                    .unwrap_or_else(PoisonError::into_inner);
                st = g;
                if timeout.timed_out() {
                    timed_rechecks += 1;
                } else {
                    timed_rechecks = 0;
                }
            } else {
                st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                timed_rechecks = 0;
            }
        }
        // Leader: drain everything queued so far and process it as one
        // group, outside the lock so followers can keep enqueueing.
        st.leader = true;
        let mut drained = std::mem::take(&mut st.pending);
        let hint = st.last_group;
        drop(st);
        // Formation window: the previous cycle carried more writers
        // than we just drained, so the missing ones are almost
        // certainly between commits — they picked up their results
        // microseconds ago and are about to re-enqueue. Without this
        // wait the first writer back leads a group of one and the
        // steady state degenerates into alternating 1-and-(N-1)
        // cycles, each paying a full fsync. A solo writer never waits:
        // its previous group size is 1.
        if drained.len() < hint {
            thread::sleep(FORMATION_WINDOW);
            let mut st = lock(&self.state);
            drained.extend(std::mem::take(&mut st.pending));
            drop(st);
        }
        let tickets: Vec<u64> = drained.iter().map(|&(t, _)| t).collect();
        let victims: Vec<u64> = tickets.iter().copied().filter(|&t| t != ticket).collect();
        let mut guard = DeathGuard {
            queue: self,
            victims: &victims,
            armed: true,
        };
        let items: Vec<T> = drained.into_iter().map(|(_, x)| x).collect();
        let results = process(items);
        guard.armed = false;
        drop(guard);

        let mut st = lock(&self.state);
        let mut it = results.into_iter();
        let mut own: Option<R> = None;
        for &t in &tickets {
            // Positional pairing; a short result vector degrades the
            // tail to `None` instead of panicking in the write path.
            let r = it.next();
            if t == ticket {
                own = r;
            } else {
                st.done.push((t, r));
            }
        }
        st.leader = false;
        st.last_group = tickets.len();
        self.cv.notify_all();
        drop(st);
        own
    }
}

/// Releases a dead leader's followers during unwinding; see the module
/// docs.
struct DeathGuard<'a, T, R> {
    queue: &'a CommitQueue<T, R>,
    victims: &'a [u64],
    armed: bool,
}

impl<T, R> Drop for DeathGuard<'_, T, R> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut st = lock(&self.queue.state);
        for &t in self.victims {
            st.done.push((t, None));
        }
        st.leader = false;
        st.last_group = self.victims.len() + 1;
        self.queue.cv.notify_all();
    }
}

fn lock<'a, T, R>(m: &'a Mutex<State<T, R>>) -> MutexGuard<'a, State<T, R>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Removes and returns the published slot for `ticket`, if any. The
/// outer `Option` is "published yet?", the inner one is the result
/// itself (`None` = the leader died with this ticket in its batch).
fn take_done<R>(done: &mut Vec<(u64, Option<R>)>, ticket: u64) -> Option<Option<R>> {
    let i = done.iter().position(|&(t, _)| t == ticket)?;
    Some(done.swap_remove(i).1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};
    use std::thread;

    /// Spins until `cond` holds (a state another thread is about to
    /// reach; the tests below order their threads with it).
    fn wait_until(cond: impl Fn() -> bool) {
        while !cond() {
            thread::yield_now();
        }
    }

    #[test]
    fn solo_caller_leads_its_own_group_of_one() {
        let q: CommitQueue<u32, u32> = CommitQueue::new();
        let r = q.commit(7, |items| {
            assert_eq!(items, vec![7]);
            items.iter().map(|x| x * 10).collect()
        });
        assert_eq!(r, Some(70));
        // The queue is reusable after a cycle.
        assert_eq!(q.commit(8, |items| items), Some(8));
    }

    #[test]
    fn every_caller_gets_its_own_result() {
        let q: Arc<CommitQueue<u32, u32>> = Arc::new(CommitQueue::new());
        let mut handles = Vec::new();
        for k in 0..16u32 {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                q.commit(k, |items| items.iter().map(|x| x * 2 + 1).collect())
            }));
        }
        for (k, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), Some(k as u32 * 2 + 1));
        }
    }

    #[test]
    fn followers_coalesce_behind_a_blocked_leader() {
        let q: Arc<CommitQueue<u32, u32>> = Arc::new(CommitQueue::new());
        let gate = Arc::new(Barrier::new(2));
        let calls = Arc::new(AtomicUsize::new(0));

        // Leader: holds the cycle open until main releases it.
        let leader = {
            let (q, gate, calls) = (Arc::clone(&q), Arc::clone(&gate), Arc::clone(&calls));
            thread::spawn(move || {
                q.commit(0, move |items| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    gate.wait();
                    items
                })
            })
        };
        // Followers: enqueue only once the leader is inside `process` —
        // a follower that got there first would lead, and a later one
        // could drain the leader's item so its closure (and the
        // barrier) never runs.
        wait_until(|| calls.load(Ordering::SeqCst) == 1);
        let mut followers = Vec::new();
        for k in 1..=4u32 {
            let (q, calls) = (Arc::clone(&q), Arc::clone(&calls));
            followers.push(thread::spawn(move || {
                q.commit(k, move |items| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    items
                })
            }));
        }
        wait_until(|| lock(&q.state).pending.len() == 4);
        gate.wait();

        assert_eq!(leader.join().unwrap(), Some(0));
        for (k, h) in followers.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), Some(k as u32 + 1));
        }
        // 5 callers, 2 cycles: all four followers were queued behind
        // the blocked leader, so the first one awake drained them all.
        assert_eq!(calls.load(Ordering::SeqCst), 2, "followers did not group");
    }

    #[test]
    fn dead_leader_releases_victims_and_a_follower_takes_over() {
        let q: Arc<CommitQueue<u32, u32>> = Arc::new(CommitQueue::new());
        let gate = Arc::new(Barrier::new(2));
        let blocking = Arc::new(AtomicBool::new(false));

        // `process` panics exactly when it sees a group of >= 2 items,
        // so the barrier-holding leader (group of 1) survives and the
        // follower group's leader dies with the others as victims.
        let poisoned = |items: Vec<u32>| -> Vec<u32> {
            assert!(items.len() < 2, "injected leader death");
            items
        };

        let blocker = {
            let (q, gate, blocking) = (Arc::clone(&q), Arc::clone(&gate), Arc::clone(&blocking));
            thread::spawn(move || {
                q.commit(0, move |items| {
                    blocking.store(true, Ordering::SeqCst);
                    gate.wait();
                    items
                })
            })
        };
        // Spawn the followers only once the blocker is inside `process`:
        // a follower that led first could have the blocker's item
        // drained into a poisoned group, and the blocker would return
        // `None` without ever reaching the barrier.
        wait_until(|| blocking.load(Ordering::SeqCst));
        let mut followers = Vec::new();
        for k in 1..=3u32 {
            let q = Arc::clone(&q);
            followers.push(thread::spawn(move || q.commit(k, poisoned)));
        }
        wait_until(|| lock(&q.state).pending.len() == 3);
        gate.wait();
        assert_eq!(blocker.join().unwrap(), Some(0));

        // One follower became leader, drained all three, and panicked:
        // its join reports the panic, the other two observe None.
        let mut panics = 0;
        let mut nones = 0;
        for h in followers {
            match h.join() {
                Err(_) => panics += 1,
                Ok(None) => nones += 1,
                Ok(Some(r)) => panic!("a follower led a group of one and got {r}"),
            }
        }
        assert_eq!((panics, nones), (1, 2));
        // The queue survives the death: a fresh commit goes through.
        assert_eq!(q.commit(9, |items| items), Some(9));
    }
}
