//! A persistent shard-worker runtime: long-lived worker threads owning
//! their per-shard state, fed over FIFO channels.
//!
//! Forking one scoped thread per shard per dispatch pays the spawn/join
//! cost again at every synchronization point. When the same shards are
//! dispatched thousands of times (the `coach-serve` sharded controller
//! processes one segment per barrier request), that fork-join overhead eats
//! the parallelism.
//!
//! [`with_shard_threads`] instead takes the persistent-worker shape
//! from the fine-grain ordered-parallelism literature: each shard's state
//! moves into a long-lived worker thread once per *session*, commands
//! stream to it over a channel (preserving per-shard order), and replies
//! stream back over a second channel in the same order. The caller
//! sequences barriers itself by sending a token to every worker —
//! channel FIFO guarantees each worker applies the token between exactly
//! the commands the caller ordered around it, so no global stop-the-world
//! join is needed and workers never go idle between segments. It is the
//! one executor `coach-serve`'s shard sessions run on: the commands and
//! replies are plain values moved across threads, never encoded.
//!
//! The lanes are `std::sync::mpsc` channels: FIFO, blocking, closed when
//! either end drops. A command lane is a `sync_channel` bounded at
//! [`COMMAND_LANE_CAPACITY`], so a caller that outruns a worker parks
//! instead of queueing without bound. A reply lane is unbounded: callers
//! may defer draining replies until a barrier, and a bounded reply lane
//! would let a slow drainer deadlock a worker against its own
//! backpressure. The pool counts what crosses the lanes into
//! [`LaneStats`].

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;

/// Queue bound for worker command lanes. A worker takes one command at a
/// time, so a shard holds at most this many queued commands plus the one
/// it is applying, and a caller the one it is building or parked on. With
/// coarse commands two queued ones keep a worker busy across the caller's
/// hiccups, and every command more is memory that buys no throughput: the
/// serving dispatcher's segments (1,024 staged arrivals, about 340 kB, or
/// 128 with their predictions, about 100 kB) queue at most about 700 kB
/// per lane.
pub const COMMAND_LANE_CAPACITY: usize = 2;

/// Cumulative lane telemetry of a worker pool, counted at the lane
/// endpoints. `coach-serve` surfaces the pool-wide sums through
/// `ShardedController::lane_totals` and its telemetry registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Items enqueued, commands and replies (each item of a batch counts
    /// once).
    pub sends: u64,
    /// `send_batch` calls — `sends / batched_sends` is the mean handoff
    /// size.
    pub batched_sends: u64,
    /// Parks, counted at the endpoint that may sleep: each receive (a
    /// worker's or the caller's) that found its lane empty, plus each full
    /// stall. A receiver that finds the lane empty may still take an item
    /// without sleeping, so this is an upper bound on parks: how often a
    /// handoff found its peer behind instead of ahead.
    pub wakeups: u64,
    /// Times the caller found a command lane full and had to stall for
    /// the worker (backpressure events; reply lanes never stall). Each is
    /// also counted in `wakeups`.
    pub full_stalls: u64,
}

impl LaneStats {
    /// Accumulate another snapshot into this one.
    pub fn merge(&mut self, other: &LaneStats) {
        self.sends += other.sends;
        self.batched_sends += other.batched_sends;
        self.wakeups += other.wakeups;
        self.full_stalls += other.full_stalls;
    }
}

/// Shared atomic counters behind one pool's lanes (see [`LaneStats`] for
/// field meanings). Updated with relaxed ordering: telemetry, not
/// synchronization.
#[derive(Debug, Default)]
struct LaneCounters {
    sends: AtomicU64,
    batched_sends: AtomicU64,
    wakeups: AtomicU64,
    full_stalls: AtomicU64,
}

impl LaneCounters {
    fn count(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LaneStats {
        LaneStats {
            sends: self.sends.load(Ordering::Relaxed),
            batched_sends: self.batched_sends.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            full_stalls: self.full_stalls.load(Ordering::Relaxed),
        }
    }

    /// Block for the next item on `rx`, counting a park when none is
    /// queued; `None` once the sender is gone and the lane drained.
    fn recv<T>(&self, rx: &Receiver<T>) -> Option<T> {
        match rx.try_recv() {
            Ok(item) => Some(item),
            Err(TryRecvError::Empty) => {
                LaneCounters::count(&self.wakeups, 1);
                rx.recv().ok()
            }
            Err(TryRecvError::Disconnected) => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Shard worker pool
// ---------------------------------------------------------------------------

/// Handles to a running pool of shard workers (inside
/// [`with_shard_threads`]): one FIFO command lane and one FIFO reply lane
/// per worker — a bounded lane to the worker and an unbounded lane back
/// (see the module docs for why).
pub struct ShardWorkers<Cmd, Res> {
    senders: Vec<SyncSender<Cmd>>,
    receivers: Vec<Receiver<Res>>,
    counters: Arc<LaneCounters>,
}

impl<Cmd, Res> ShardWorkers<Cmd, Res> {
    /// Number of workers.
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// Whether the pool has no workers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Send a command to worker `shard` (blocks only on command-lane
    /// backpressure; a command to a worker that has died is dropped).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn send(&mut self, shard: usize, cmd: Cmd) {
        LaneCounters::count(&self.counters.sends, 1);
        self.push(shard, cmd);
    }

    /// Send a burst of commands to worker `shard`, counted as one batched
    /// handoff (equivalent to sending each in order).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn send_batch(&mut self, shard: usize, cmds: Vec<Cmd>) {
        if cmds.is_empty() {
            return;
        }
        LaneCounters::count(&self.counters.sends, cmds.len() as u64);
        LaneCounters::count(&self.counters.batched_sends, 1);
        for cmd in cmds {
            self.push(shard, cmd);
        }
    }

    /// Enqueue one command, counting a full lane as a stall (and a park)
    /// before blocking on it.
    fn push(&self, shard: usize, cmd: Cmd) {
        let tx = &self.senders[shard];
        if let Err(TrySendError::Full(cmd)) = tx.try_send(cmd) {
            LaneCounters::count(&self.counters.full_stalls, 1);
            LaneCounters::count(&self.counters.wakeups, 1);
            let _ = tx.send(cmd);
        }
    }

    /// Block for worker `shard`'s next reply. Replies arrive in command
    /// order — one per command, produced by the worker's handler.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range, or the worker terminated without
    /// replying (it panicked — the original panic is re-raised when the
    /// pool joins).
    pub fn recv(&mut self, shard: usize) -> Res {
        self.counters
            .recv(&self.receivers[shard])
            .expect("shard worker terminated before replying")
    }

    /// Aggregate lane telemetry across every command and reply lane in
    /// the pool.
    pub fn lane_stats(&self) -> LaneStats {
        self.counters.snapshot()
    }
}

/// Run `body` against one long-lived worker thread per entry of `states`,
/// a single entry included.
///
/// Each worker owns its state for the whole session: it takes commands
/// off its lane one at a time, applies `handler(shard, &mut state, cmd)`
/// to each, and sends the results back on its reply lane — so per-shard
/// command order is execution order, and consecutive commands to the same
/// shard never pay a thread spawn. When `body` returns, the command lanes close, the workers
/// drain and exit, and the (mutated) states are returned alongside
/// `body`'s result.
///
/// A panic in `body` or any worker propagates to the caller once every
/// worker has been joined. When both panic — `body` typically because a
/// dead worker closed its reply lane — the message names both, so the
/// worker's own failure is never lost behind the symptom.
pub fn with_shard_threads<T, Cmd, Res, R>(
    states: Vec<T>,
    handler: impl Fn(usize, &mut T, Cmd) -> Res + Sync,
    body: impl FnOnce(&mut ShardWorkers<Cmd, Res>) -> R,
) -> (Vec<T>, R)
where
    T: Send,
    Cmd: Send,
    Res: Send,
{
    std::thread::scope(|scope| {
        let handler = &handler;
        let counters = Arc::new(LaneCounters::default());
        let mut senders = Vec::with_capacity(states.len());
        let mut receivers = Vec::with_capacity(states.len());
        let joins: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(shard, mut state)| {
                let (cmd_tx, cmd_rx) = mpsc::sync_channel::<Cmd>(COMMAND_LANE_CAPACITY);
                // Unbounded on purpose: see the module docs.
                let (res_tx, res_rx) = mpsc::channel::<Res>();
                senders.push(cmd_tx);
                receivers.push(res_rx);
                let counters = Arc::clone(&counters);
                scope.spawn(move || {
                    while let Some(cmd) = counters.recv(&cmd_rx) {
                        let reply = handler(shard, &mut state, cmd);
                        LaneCounters::count(&counters.sends, 1);
                        // A caller that stopped listening drops the reply.
                        let _ = res_tx.send(reply);
                    }
                    state
                })
            })
            .collect();
        let mut workers = ShardWorkers {
            senders,
            receivers,
            counters,
        };
        let out = catch_unwind(AssertUnwindSafe(|| body(&mut workers)));
        // Close the command lanes so the workers drain and exit.
        drop(workers);
        let mut states = Vec::with_capacity(joins.len());
        let mut failed = None;
        for (shard, join) in joins.into_iter().enumerate() {
            match join.join() {
                Ok(state) => states.push(state),
                Err(panic) => {
                    failed.get_or_insert((shard, panic));
                }
            }
        }
        match (out, failed) {
            (Ok(out), None) => (states, out),
            (Ok(_), Some((_, panic))) | (Err(panic), None) => resume_unwind(panic),
            (Err(symptom), Some((shard, cause))) => panic!(
                "{}; shard {shard}'s worker panicked first: {}",
                panic_text(&*symptom),
                panic_text(&*cause)
            ),
        }
    })
}

/// The message of a panic payload (`panic!` with a literal or a format).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic>")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_preserve_per_shard_order() {
        let states: Vec<Vec<u32>> = vec![Vec::new(); 4];
        let (states, got) = with_shard_threads(
            states,
            |shard, log, cmd: u32| {
                log.push(cmd);
                cmd + shard as u32
            },
            |workers| {
                let mut expect = 0u32;
                for round in 0..50u32 {
                    for shard in 0..workers.len() {
                        workers.send(shard, round);
                        expect += round + shard as u32;
                    }
                }
                let mut got = 0u32;
                for _round in 0..50 {
                    for shard in 0..workers.len() {
                        got += workers.recv(shard);
                    }
                }
                assert_eq!(got, expect);
                got
            },
        );
        assert!(got > 0);
        for log in &states {
            assert_eq!(*log, (0..50).collect::<Vec<u32>>(), "per-shard FIFO");
        }
    }

    #[test]
    fn worker_send_batch_and_lane_stats() {
        let (states, stats) = with_shard_threads(
            vec![0u64; 2],
            |_, total, cmd: u64| {
                *total += cmd;
                cmd
            },
            |workers| {
                workers.send_batch(0, (1..=100).collect());
                workers.send_batch(1, (1..=50).collect());
                for _ in 0..100 {
                    workers.recv(0);
                }
                for _ in 0..50 {
                    workers.recv(1);
                }
                workers.lane_stats()
            },
        );
        assert_eq!(states, vec![5050, 1275]);
        // 150 commands + 150 replies crossed lanes; exactly two command
        // batches were issued.
        assert_eq!(stats.sends, 300);
        assert_eq!(stats.batched_sends, 2);
    }

    /// Why reply lanes are unbounded: a caller may queue far more commands
    /// than a command lane holds before it reads a single reply. With a
    /// bounded reply lane the workers would park on it, their command
    /// lanes would fill, and the caller would park behind them for good.
    #[test]
    fn deferred_reply_drain_does_not_deadlock() {
        const PER_WORKER: usize = 4 * COMMAND_LANE_CAPACITY;
        let (done, finished) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let (states, replies) = with_shard_threads(
                vec![0usize; 2],
                |shard, seen, cmd: usize| {
                    *seen += 1;
                    (shard, cmd)
                },
                |workers| {
                    for shard in 0..workers.len() {
                        for cmd in 0..PER_WORKER / 2 {
                            workers.send(shard, cmd);
                        }
                        workers.send_batch(shard, (PER_WORKER / 2..PER_WORKER).collect());
                    }
                    let mut replies = Vec::new();
                    for shard in 0..workers.len() {
                        for _ in 0..PER_WORKER {
                            replies.push(workers.recv(shard));
                        }
                    }
                    replies
                },
            );
            let _ = done.send((states, replies));
        });
        let (states, replies) = finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the pool deadlocked on deferred replies");
        runner.join().expect("runner");
        assert_eq!(states, vec![PER_WORKER; 2]);
        let expect: Vec<(usize, usize)> = (0..2)
            .flat_map(|shard| (0..PER_WORKER).map(move |cmd| (shard, cmd)))
            .collect();
        assert_eq!(replies, expect, "replies in command order");
    }

    /// The runtime premise of `coach-serve`'s in-flight byte budget: a
    /// worker's command lane and its handler hold at most
    /// `COMMAND_LANE_CAPACITY + 1` commands, and a caller that outruns
    /// the worker stalls instead of queueing more.
    #[test]
    fn a_worker_holds_at_most_capacity_plus_one_commands() {
        const COMMANDS: usize = 6 * COMMAND_LANE_CAPACITY;
        let finished = AtomicU64::new(0);
        let (_, stats) = with_shard_threads(
            vec![()],
            |_, _, _: usize| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                finished.fetch_add(1, Ordering::SeqCst);
            },
            |workers| {
                for sent in 1..=COMMANDS {
                    workers.send(0, sent);
                    let held = sent as u64 - finished.load(Ordering::SeqCst);
                    assert!(
                        held <= COMMAND_LANE_CAPACITY as u64 + 1,
                        "{held} commands held after send {sent}"
                    );
                }
                for _ in 0..COMMANDS {
                    workers.recv(0);
                }
                workers.lane_stats()
            },
        );
        assert!(stats.full_stalls > 0, "{stats:?}");
        assert_eq!(stats.sends, 2 * COMMANDS as u64);
    }

    #[test]
    fn states_come_back_mutated() {
        let (states, ()) = with_shard_threads(
            vec![0u64; 3],
            |_, count, delta: u64| {
                *count += delta;
            },
            |workers| {
                for shard in 0..workers.len() {
                    workers.send(shard, 10);
                    workers.send(shard, 32);
                }
                for shard in 0..workers.len() {
                    workers.recv(shard);
                    workers.recv(shard);
                }
            },
        );
        assert_eq!(states, vec![42, 42, 42]);
    }

    /// A lone shard runs on a worker thread like any other: its two
    /// commands and two replies cross lanes.
    #[test]
    fn single_shard_runs_on_a_lane() {
        let (states, answers) = with_shard_threads(
            vec![String::new()],
            |_, s, cmd: &str| {
                s.push_str(cmd);
                s.len()
            },
            |workers| {
                assert_eq!(workers.len(), 1);
                workers.send(0, "ab");
                workers.send(0, "c");
                let answers = vec![workers.recv(0), workers.recv(0)];
                assert_eq!(workers.lane_stats().sends, 4);
                answers
            },
        );
        assert_eq!(states, vec!["abc".to_string()]);
        assert_eq!(answers, vec![2, 3]);
    }

    #[test]
    fn empty_pool_is_fine() {
        let (states, out) =
            with_shard_threads(Vec::<u8>::new(), |_, _, _: u8| 0u8, |workers| workers.len());
        assert!(states.is_empty());
        assert_eq!(out, 0);
    }

    #[test]
    fn interleaved_send_recv_pipelines() {
        // Send a batch, receive some, send more: the lanes stay aligned.
        let (_, ()) = with_shard_threads(
            vec![0u32; 2],
            |_, total, cmd: u32| {
                *total += cmd;
                *total
            },
            |workers| {
                workers.send(0, 5);
                workers.send(1, 7);
                assert_eq!(workers.recv(0), 5);
                workers.send(0, 5);
                assert_eq!(workers.recv(0), 10);
                assert_eq!(workers.recv(1), 7);
            },
        );
    }

    #[test]
    #[should_panic(expected = "terminated before replying")]
    fn worker_panic_propagates() {
        let _ = with_shard_threads(
            vec![0u8, 0u8],
            |shard, _, _: u8| {
                if shard == 1 {
                    panic!("worker boom");
                }
                0u8
            },
            |workers| {
                workers.send(0, 1);
                workers.send(1, 1);
                let a = workers.recv(0);
                // Worker 1 dies before replying: its reply lane closes, so
                // recv panics instead of blocking forever, and the scope
                // still joins the dead worker on the way out.
                let b = workers.recv(1);
                a + b
            },
        );
    }

    /// A dead worker's command lane never blocks its caller, however many
    /// commands more than the lane holds are sent to it: the caller
    /// reaches the reply it will never get and surfaces the worker's
    /// death instead of hanging.
    #[test]
    #[should_panic(expected = "terminated before replying")]
    fn sends_to_a_dead_worker_never_block() {
        let (done, finished) = std::sync::mpsc::channel::<()>();
        let runner = std::thread::spawn(move || {
            let _done = done;
            with_shard_threads(
                vec![0u8, 0u8],
                |shard, _, _: usize| {
                    if shard == 1 {
                        panic!("worker boom");
                    }
                    0u8
                },
                |workers| {
                    workers.send(1, 0);
                    for cmd in 1..=4 * COMMAND_LANE_CAPACITY {
                        workers.send(1, cmd);
                    }
                    workers.recv(1)
                },
            )
        });
        // The runner drops `done` when it returns or unwinds.
        let blocked = finished.recv_timeout(std::time::Duration::from_secs(60));
        assert!(
            blocked != Err(std::sync::mpsc::RecvTimeoutError::Timeout),
            "sends to a dead worker blocked"
        );
        if let Err(panic) = runner.join() {
            resume_unwind(panic);
        }
    }
}
