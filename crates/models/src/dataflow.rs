//! Stateful dataflows (§3.1 "Stateful Dataflows", §4.1, §4.2 — the
//! Flink-style model \[17\]).
//!
//! A job is a linear chain of stages — sources, keyed stateful operators,
//! sinks — each with configurable parallelism. Events are partitioned by
//! key hash between stages. State is decentralized: every operator
//! instance owns the state of its key range and nothing else, so there is
//! no concurrency control at all (§3.3: "stateful operators typically do
//! not share state, preventing concurrency issues").
//!
//! Fault tolerance is aligned-barrier snapshotting (Chandy–Lamport \[18\]):
//! the job manager injects numbered barriers at the sources; operators
//! align barriers across input channels, snapshot their state, and
//! forward; when every task has acknowledged, the checkpoint is complete.
//! On any worker failure the whole job rolls back to the last complete
//! checkpoint and sources rewind — **exactly-once state semantics**. Sinks
//! choose their output guarantee: [`SinkMode::AtLeastOnce`] emits
//! immediately (duplicates after rollback), [`SinkMode::ExactlyOnce`]
//! holds output until the covering checkpoint completes (transactional
//! sink).
//!
//! Channels are sequence-numbered FIFO (the TCP analogue); the dataflow
//! layer assumes a loss-free network and crash-restart failures, exactly
//! like Flink over TCP.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use tca_sim::{DetHashMap as HashMap, DetHashSet as HashSet};

use tca_sim::{key_shard, Ctx, Payload, Process, ProcessId, SimDuration};
use tca_storage::Value;

/// A streaming event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Partitioning key.
    pub key: String,
    /// Payload value.
    pub value: Value,
    /// Source-assigned sequence (for end-to-end audits).
    pub seq: u64,
}

/// Source generator: offset → event (None = end of stream).
pub type GeneratorFn = Rc<dyn Fn(u64) -> Option<Event>>;

/// Keyed operator: `(key_state, event) → outputs`.
pub type OperatorFn = Rc<dyn Fn(&mut Value, &Event) -> Vec<Event>>;

/// Sink output guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkMode {
    /// Emit on arrival; rollbacks re-emit (duplicates possible).
    AtLeastOnce,
    /// Buffer until the covering checkpoint completes (no duplicates).
    ExactlyOnce,
}

#[derive(Clone)]
enum StageKind {
    Source {
        generator: GeneratorFn,
        /// Events emitted per emission tick, and the tick interval.
        batch: usize,
        interval: SimDuration,
    },
    Operator {
        op: OperatorFn,
        initial: Rc<dyn Fn(&str) -> Value>,
    },
    Sink {
        mode: SinkMode,
        /// Metric name events are counted under when committed.
        metric: String,
    },
}

#[derive(Clone)]
struct Stage {
    name: String,
    parallelism: usize,
    kind: StageKind,
}

/// Builder for a linear streaming job.
#[derive(Clone, Default)]
pub struct JobBuilder {
    stages: Vec<Stage>,
}

impl JobBuilder {
    /// Empty job.
    pub fn new() -> Self {
        JobBuilder::default()
    }

    /// Add a rate-limited source stage.
    pub fn source(
        mut self,
        name: &str,
        parallelism: usize,
        generator: impl Fn(u64) -> Option<Event> + 'static,
        batch: usize,
        interval: SimDuration,
    ) -> Self {
        self.stages.push(Stage {
            name: name.to_owned(),
            parallelism,
            kind: StageKind::Source {
                generator: Rc::new(generator),
                batch,
                interval,
            },
        });
        self
    }

    /// Add a keyed stateful operator stage.
    pub fn keyed(
        mut self,
        name: &str,
        parallelism: usize,
        op: impl Fn(&mut Value, &Event) -> Vec<Event> + 'static,
        initial: impl Fn(&str) -> Value + 'static,
    ) -> Self {
        self.stages.push(Stage {
            name: name.to_owned(),
            parallelism,
            kind: StageKind::Operator {
                op: Rc::new(op),
                initial: Rc::new(initial),
            },
        });
        self
    }

    /// Add a sink stage. `metric` is the counter committed events land in.
    pub fn sink(mut self, name: &str, parallelism: usize, mode: SinkMode, metric: &str) -> Self {
        self.stages.push(Stage {
            name: name.to_owned(),
            parallelism,
            kind: StageKind::Sink {
                mode,
                metric: metric.to_owned(),
            },
        });
        self
    }
}

// ---------------------------------------------------------------------------
// Wire messages
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum StreamMsg {
    Data(Event),
    Barrier(u64),
}

#[derive(Debug, Clone)]
struct ChannelMsg {
    epoch: u64,
    seq: u64,
    msg: StreamMsg,
}

#[derive(Debug, Clone)]
struct TriggerCheckpoint {
    id: u64,
}

#[derive(Debug, Clone)]
struct CheckpointAck {
    id: u64,
    task: usize,
}

#[derive(Debug, Clone)]
struct CheckpointComplete {
    id: u64,
}

#[derive(Debug, Clone)]
struct Restore {
    checkpoint: u64,
    epoch: u64,
}

#[derive(Debug, Clone)]
struct RestoreAck {
    task: usize,
}

#[derive(Debug, Clone)]
struct Resume {
    epoch: u64,
}

#[derive(Debug, Clone)]
struct WorkerHello {
    lost_state: bool,
}

// ---------------------------------------------------------------------------
// Topology handle
// ---------------------------------------------------------------------------

/// Runtime handle to a deployed job (shared, late-bound).
#[derive(Clone, Default)]
pub struct Deployment {
    inner: Rc<std::cell::RefCell<DeploymentInner>>,
}

#[derive(Default)]
struct DeploymentInner {
    /// Worker pids per stage.
    stage_workers: Vec<Vec<ProcessId>>,
    manager: Option<ProcessId>,
    all_tasks: Vec<ProcessId>,
}

impl Deployment {
    fn workers_of(&self, stage: usize) -> Vec<ProcessId> {
        self.inner.borrow().stage_workers[stage].clone()
    }
    fn manager(&self) -> ProcessId {
        self.inner.borrow().manager.expect("deployed")
    }
    fn task_count(&self) -> usize {
        self.inner.borrow().all_tasks.len()
    }
    fn all_tasks(&self) -> Vec<ProcessId> {
        self.inner.borrow().all_tasks.clone()
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

const SOURCE_TICK_TAG: u64 = 0xdf_0001;

/// Durable snapshot of one task.
struct TaskSnapshot {
    /// Keyed state (operators).
    state: HashMap<String, Value>,
    /// Source position.
    position: u64,
}

struct InputChannel {
    next_seq: u64,
    reorder: BTreeMap<u64, StreamMsg>,
    barrier_seen: bool,
}

/// One deployed task (source/operator/sink instance).
pub struct Worker {
    task_index: usize,
    stage_index: usize,
    stage: Stage,
    deployment: Deployment,
    /// The durable `snapshots` map, by checkpoint id: the last completed
    /// checkpoint and whatever was taken since. Older ones are pruned when
    /// a completion arrives — the manager's `completed` only grows, so no
    /// `Restore` can name them.
    snapshots: Rc<RefCell<BTreeMap<u64, TaskSnapshot>>>,
    // --- streaming state ---
    keyed_state: HashMap<String, Value>,
    position: u64,
    eos: bool,
    epoch: u64,
    // channels
    inputs: HashMap<ProcessId, InputChannel>,
    out_seq: HashMap<ProcessId, u64>,
    // alignment
    aligning: Option<u64>,
    align_buffer: VecDeque<(ProcessId, StreamMsg)>,
    // sink buffering (exactly-once)
    staged: BTreeMap<u64, u64>,
    uncommitted: u64,
    // restore handshake
    paused: bool,
    /// Index of this task within its stage (0..parallelism).
    stage_relative_index: usize,
    /// Whether this incarnation came from a crash restart.
    boot_restart: bool,
}

impl Worker {
    fn upstream(&self) -> Vec<ProcessId> {
        if self.stage_index == 0 {
            Vec::new()
        } else {
            self.deployment.workers_of(self.stage_index - 1)
        }
    }

    fn downstream(&self) -> Vec<ProcessId> {
        let inner = self.deployment.inner.borrow();
        if self.stage_index + 1 < inner.stage_workers.len() {
            inner.stage_workers[self.stage_index + 1].clone()
        } else {
            Vec::new()
        }
    }

    fn emit(&mut self, ctx: &mut Ctx, event: Event) {
        let downstream = self.downstream();
        if downstream.is_empty() {
            return;
        }
        let target = downstream[key_shard(&event.key, downstream.len())];
        self.send_channel(ctx, target, StreamMsg::Data(event));
    }

    fn send_channel(&mut self, ctx: &mut Ctx, target: ProcessId, msg: StreamMsg) {
        let seq = self.out_seq.entry(target).or_insert(0);
        let channel_msg = ChannelMsg {
            epoch: self.epoch,
            seq: *seq,
            msg,
        };
        *seq += 1;
        ctx.send(target, Payload::new(channel_msg));
    }

    fn broadcast_downstream(&mut self, ctx: &mut Ctx, msg: StreamMsg) {
        for target in self.downstream() {
            self.send_channel(ctx, target, msg.clone());
        }
    }

    fn snapshot(&mut self, ctx: &mut Ctx, id: u64) {
        let snap = TaskSnapshot {
            state: self.keyed_state.clone(),
            position: self.position,
        };
        self.snapshots.borrow_mut().insert(id, snap);
        ctx.metrics().incr("dataflow.snapshots", 1);
        ctx.metrics().incr(
            &format!(
                "dataflow.snapshots.{}-{}",
                self.stage.name, self.stage_relative_index
            ),
            1,
        );
        let manager = self.deployment.manager();
        ctx.send(
            manager,
            Payload::new(CheckpointAck {
                id,
                task: self.task_index,
            }),
        );
    }

    fn restore(&mut self, ctx: &mut Ctx, checkpoint: u64, epoch: u64) {
        match self.snapshots.borrow().get(&checkpoint) {
            Some(snap) => {
                self.keyed_state = snap.state.clone();
                self.position = snap.position;
            }
            None => {
                self.keyed_state = HashMap::default();
                self.position = 0;
            }
        }
        self.eos = false;
        self.epoch = epoch;
        self.inputs.clear();
        self.out_seq.clear();
        self.aligning = None;
        self.align_buffer.clear();
        // Exactly-once sinks discard uncommitted output; at-least-once
        // sinks already emitted it (the duplicate source).
        self.staged.clear();
        self.uncommitted = 0;
        self.paused = true;
        let manager = self.deployment.manager();
        ctx.send(
            manager,
            Payload::new(RestoreAck {
                task: self.task_index,
            }),
        );
    }

    /// Process one in-order stream message.
    fn process(&mut self, ctx: &mut Ctx, from: ProcessId, msg: StreamMsg) {
        // While aligning, buffer EVERYTHING (data and subsequent
        // barriers) from already-barriered channels — a later barrier
        // must not overwrite the in-progress alignment when checkpoints
        // queue up behind a backlog.
        if let Some(id) = self.aligning {
            let barriered = self
                .inputs
                .get(&from)
                .map(|c| c.barrier_seen)
                .unwrap_or(false);
            if barriered {
                self.align_buffer.push_back((from, msg));
                return;
            }
            if let StreamMsg::Barrier(bid) = &msg {
                if *bid == id {
                    self.inputs.get_mut(&from).expect("channel").barrier_seen = true;
                    self.try_complete_alignment(ctx, id);
                } else {
                    // A barrier for a different checkpoint while this
                    // channel has not yet delivered the current one:
                    // park it — it belongs to a later alignment round.
                    self.align_buffer.push_back((from, msg));
                }
                return;
            }
        }
        match msg {
            StreamMsg::Data(event) => self.apply(ctx, event),
            StreamMsg::Barrier(id) => {
                // First barrier of this checkpoint on any channel.
                self.inputs.get_mut(&from).expect("channel").barrier_seen = true;
                self.aligning = Some(id);
                self.try_complete_alignment(ctx, id);
            }
        }
    }

    fn try_complete_alignment(&mut self, ctx: &mut Ctx, id: u64) {
        let upstream = self.upstream();
        let all = upstream.iter().all(|pid| {
            self.inputs
                .get(pid)
                .map(|c| c.barrier_seen)
                .unwrap_or(false)
        });
        if !all {
            return;
        }
        // Alignment complete: snapshot, forward, drain buffer.
        for c in self.inputs.values_mut() {
            c.barrier_seen = false;
        }
        self.aligning = None;
        if let StageKind::Sink { mode, .. } = &self.stage.kind {
            if *mode == SinkMode::ExactlyOnce {
                self.staged.insert(id, self.uncommitted);
                self.uncommitted = 0;
            }
        }
        self.snapshot(ctx, id);
        self.broadcast_downstream(ctx, StreamMsg::Barrier(id));
        let buffered: Vec<(ProcessId, StreamMsg)> = self.align_buffer.drain(..).collect();
        for (from, msg) in buffered {
            self.process(ctx, from, msg);
        }
    }

    fn apply(&mut self, ctx: &mut Ctx, event: Event) {
        match &self.stage.kind {
            StageKind::Source { .. } => unreachable!("sources have no input"),
            StageKind::Operator { op, initial } => {
                let op = Rc::clone(op);
                let state = self
                    .keyed_state
                    .entry(event.key.clone())
                    .or_insert_with(|| initial(&event.key));
                let outputs = op(state, &event);
                ctx.metrics().incr("dataflow.events_processed", 1);
                for output in outputs {
                    self.emit(ctx, output);
                }
            }
            StageKind::Sink { mode, metric } => match mode {
                SinkMode::AtLeastOnce => {
                    ctx.metrics().incr(metric, 1);
                }
                SinkMode::ExactlyOnce => {
                    self.uncommitted += 1;
                    // Remember the metric for commit time via stage.
                    let _ = metric;
                }
            },
        }
    }

    fn source_tick(&mut self, ctx: &mut Ctx) {
        if self.paused || self.eos {
            return;
        }
        let StageKind::Source {
            generator,
            batch,
            interval,
        } = &self.stage.kind
        else {
            return;
        };
        let generator = Rc::clone(generator);
        let (batch, interval) = (*batch, *interval);
        let parallelism = self.deployment.workers_of(self.stage_index).len();
        for _ in 0..batch {
            // Each source instance reads its slice of the offset space.
            let offset = self.position * parallelism as u64 + self.task_index_in_stage() as u64;
            match generator(offset) {
                Some(event) => {
                    self.position += 1;
                    ctx.metrics().incr("dataflow.events_emitted", 1);
                    self.emit(ctx, event);
                }
                None => {
                    self.eos = true;
                    break;
                }
            }
        }
        if !self.eos {
            ctx.set_timer(interval, SOURCE_TICK_TAG);
        }
    }

    fn task_index_in_stage(&self) -> usize {
        self.stage_relative_index
    }

    /// Deliver in-order messages buffered on the channel from `sender`.
    fn drain_channel(&mut self, ctx: &mut Ctx, sender: ProcessId, epoch: u64) {
        while let Some(channel) = self.inputs.get_mut(&sender) {
            let Some(msg) = channel.reorder.remove(&channel.next_seq) else {
                break;
            };
            channel.next_seq += 1;
            self.process(ctx, sender, msg);
            if self.paused || self.epoch != epoch {
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Process impls
// ---------------------------------------------------------------------------

impl Process for Worker {
    fn on_start(&mut self, ctx: &mut Ctx) {
        let manager = self.deployment.manager();
        let lost_state = self.boot_restart;
        ctx.send(manager, Payload::new(WorkerHello { lost_state }));
        if matches!(self.stage.kind, StageKind::Source { .. }) && !lost_state {
            self.source_tick(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        if let Some(channel_msg) = payload.downcast_ref::<ChannelMsg>() {
            if channel_msg.epoch != self.epoch {
                return; // stale epoch
            }
            let channel = self.inputs.entry(from).or_insert_with(|| InputChannel {
                next_seq: 0,
                reorder: BTreeMap::new(),
                barrier_seen: false,
            });
            if channel_msg.seq < channel.next_seq {
                return; // duplicate
            }
            channel
                .reorder
                .insert(channel_msg.seq, channel_msg.msg.clone());
            // While paused (mid-restore handshake), buffer only: peers
            // that resumed earlier may already be sending, and dropping
            // their messages would leave a permanent sequence gap.
            if self.paused {
                return;
            }
            self.drain_channel(ctx, from, channel_msg.epoch);
        } else if let Some(trigger) = payload.downcast_ref::<TriggerCheckpoint>() {
            // Only sources receive triggers: snapshot + inject barrier.
            if matches!(self.stage.kind, StageKind::Source { .. }) && !self.paused {
                self.snapshot(ctx, trigger.id);
                self.broadcast_downstream(ctx, StreamMsg::Barrier(trigger.id));
            }
        } else if let Some(complete) = payload.downcast_ref::<CheckpointComplete>() {
            self.snapshots
                .borrow_mut()
                .retain(|&id, _| id >= complete.id);
            if let StageKind::Sink {
                mode: SinkMode::ExactlyOnce,
                metric,
            } = &self.stage.kind
            {
                let metric = metric.clone();
                let committed: u64 = self
                    .staged
                    .iter()
                    .filter(|(&id, _)| id <= complete.id)
                    .map(|(_, &n)| n)
                    .sum();
                self.staged.retain(|&id, _| id > complete.id);
                if committed > 0 {
                    ctx.metrics().incr(&metric, committed);
                }
            }
        } else if let Some(restore) = payload.downcast_ref::<Restore>() {
            self.restore(ctx, restore.checkpoint, restore.epoch);
        } else if let Some(resume) = payload.downcast_ref::<Resume>() {
            if resume.epoch == self.epoch {
                self.paused = false;
                if matches!(self.stage.kind, StageKind::Source { .. }) {
                    self.source_tick(ctx);
                }
                // Deliver anything buffered while paused.
                let senders: Vec<ProcessId> = self.inputs.keys().copied().collect();
                let epoch = self.epoch;
                for sender in senders {
                    self.drain_channel(ctx, sender, epoch);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if tag == SOURCE_TICK_TAG {
            self.source_tick(ctx);
        }
    }
}

// ---------------------------------------------------------------------------
// Job manager
// ---------------------------------------------------------------------------

const CHECKPOINT_TIMER_TAG: u64 = 0xdf_1001;

/// Job manager configuration.
#[derive(Debug, Clone)]
pub struct JobManagerConfig {
    /// Interval between checkpoints (None = checkpointing disabled).
    pub checkpoint_interval: Option<SimDuration>,
}

impl Default for JobManagerConfig {
    fn default() -> Self {
        JobManagerConfig {
            checkpoint_interval: Some(SimDuration::from_millis(50)),
        }
    }
}

struct JobManager {
    config: JobManagerConfig,
    deployment: Deployment,
    next_checkpoint: u64,
    acks: HashMap<u64, HashSet<usize>>,
    completed: u64,
    epoch: u64,
    restoring: bool,
    restore_acks: HashSet<usize>,
}

impl Process for JobManager {
    fn on_start(&mut self, ctx: &mut Ctx) {
        if let Some(interval) = self.config.checkpoint_interval {
            ctx.set_timer(interval, CHECKPOINT_TIMER_TAG);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
        if let Some(ack) = payload.downcast_ref::<CheckpointAck>() {
            if self.restoring {
                return;
            }
            let entry = self.acks.entry(ack.id).or_default();
            entry.insert(ack.task);
            if entry.len() == self.deployment.task_count() {
                self.completed = self.completed.max(ack.id);
                self.acks.remove(&ack.id);
                ctx.metrics().incr("dataflow.checkpoints_completed", 1);
                for task in self.deployment.all_tasks() {
                    ctx.send(task, Payload::new(CheckpointComplete { id: ack.id }));
                }
            }
        } else if let Some(hello) = payload.downcast_ref::<WorkerHello>() {
            if hello.lost_state && !self.restoring {
                // Global rollback to the last complete checkpoint.
                self.restoring = true;
                self.epoch += 1;
                self.acks.clear();
                self.restore_acks.clear();
                ctx.metrics().incr("dataflow.restores", 1);
                for task in self.deployment.all_tasks() {
                    ctx.send(
                        task,
                        Payload::new(Restore {
                            checkpoint: self.completed,
                            epoch: self.epoch,
                        }),
                    );
                }
            }
        } else if let Some(ack) = payload.downcast_ref::<RestoreAck>() {
            if !self.restoring {
                return;
            }
            self.restore_acks.insert(ack.task);
            if self.restore_acks.len() == self.deployment.task_count() {
                self.restoring = false;
                for task in self.deployment.all_tasks() {
                    ctx.send(task, Payload::new(Resume { epoch: self.epoch }));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if tag != CHECKPOINT_TIMER_TAG {
            return;
        }
        if !self.restoring {
            self.next_checkpoint += 1;
            let id = self.next_checkpoint;
            for source in self.deployment.workers_of(0) {
                ctx.send(source, Payload::new(TriggerCheckpoint { id }));
            }
        }
        if let Some(interval) = self.config.checkpoint_interval {
            ctx.set_timer(interval, CHECKPOINT_TIMER_TAG);
        }
    }
}

// ---------------------------------------------------------------------------
// Deploy
// ---------------------------------------------------------------------------

/// Deploy a job across `nodes` (tasks round-robin over nodes, manager on
/// the first node). Returns the deployment handle.
pub fn deploy(
    sim: &mut tca_sim::Sim,
    nodes: &[tca_sim::NodeId],
    job: &JobBuilder,
    manager_config: JobManagerConfig,
) -> Deployment {
    assert!(!nodes.is_empty() && !job.stages.is_empty());
    let deployment = Deployment::default();
    let mut node_cursor = 0usize;
    let mut all_tasks = Vec::new();
    let mut stage_workers = Vec::new();
    let mut task_counter = 0usize;
    for (stage_index, stage) in job.stages.iter().enumerate() {
        let mut workers = Vec::new();
        for sub in 0..stage.parallelism {
            let node = nodes[node_cursor % nodes.len()];
            node_cursor += 1;
            let stage = stage.clone();
            let deployment_handle = deployment.clone();
            let task_index = task_counter;
            task_counter += 1;
            let pid = sim.spawn(node, format!("df-{}-{}", stage.name, sub), move |boot| {
                Box::new(Worker {
                    task_index,
                    stage_index,
                    stage: stage.clone(),
                    deployment: deployment_handle.clone(),
                    snapshots: boot.disk.durable("snapshots"),
                    keyed_state: HashMap::default(),
                    position: 0,
                    eos: false,
                    epoch: 0,
                    inputs: HashMap::default(),
                    out_seq: HashMap::default(),
                    aligning: None,
                    align_buffer: VecDeque::new(),
                    staged: BTreeMap::new(),
                    uncommitted: 0,
                    paused: false,
                    stage_relative_index: sub,
                    boot_restart: boot.restart,
                })
            });
            workers.push(pid);
            all_tasks.push(pid);
        }
        stage_workers.push(workers);
    }
    let manager_deployment = deployment.clone();
    let manager = sim.spawn(nodes[0], "df-manager", move |_| {
        Box::new(JobManager {
            config: manager_config.clone(),
            deployment: manager_deployment.clone(),
            next_checkpoint: 0,
            acks: HashMap::default(),
            completed: 0,
            epoch: 0,
            restoring: false,
            restore_acks: HashSet::default(),
        })
    });
    {
        let mut inner = deployment.inner.borrow_mut();
        inner.stage_workers = stage_workers;
        inner.manager = Some(manager);
        inner.all_tasks = all_tasks;
    }
    deployment
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_sim::Sim;

    /// A job that counts events per key: source → keyed count → sink.
    fn counting_job(total: u64, mode: SinkMode) -> JobBuilder {
        JobBuilder::new()
            .source(
                "gen",
                2,
                move |offset| {
                    if offset >= total {
                        None
                    } else {
                        Some(Event {
                            key: format!("k{}", offset % 10),
                            value: Value::Int(1),
                            seq: offset,
                        })
                    }
                },
                5,
                SimDuration::from_micros(200),
            )
            .keyed(
                "count",
                3,
                |state, event| {
                    let count = state.as_int() + 1;
                    *state = Value::Int(count);
                    vec![Event {
                        key: event.key.clone(),
                        value: Value::Int(count),
                        seq: event.seq,
                    }]
                },
                |_| Value::Int(0),
            )
            .sink("out", 2, mode, "sink.committed")
    }

    #[test]
    fn clean_run_delivers_everything_exactly_once() {
        for mode in [SinkMode::AtLeastOnce, SinkMode::ExactlyOnce] {
            let mut sim = Sim::with_seed(91);
            let nodes = sim.add_nodes(3);
            deploy(
                &mut sim,
                &nodes,
                &counting_job(200, mode),
                JobManagerConfig::default(),
            );
            sim.run_for(SimDuration::from_secs(2));
            assert_eq!(
                sim.metrics().counter("sink.committed"),
                200,
                "{mode:?}: all events reach the sink exactly once on a clean run"
            );
            assert!(sim.metrics().counter("dataflow.checkpoints_completed") > 0);
        }
    }

    #[test]
    fn crash_at_least_once_duplicates_exactly_once_does_not() {
        // Crash a worker node mid-stream. After rollback, at-least-once
        // sinks recount some events; exactly-once sinks do not.
        let run = |mode: SinkMode| -> (u64, u64) {
            let mut sim = Sim::with_seed(92);
            let nodes = sim.add_nodes(3);
            deploy(
                &mut sim,
                &nodes,
                &counting_job(300, mode),
                JobManagerConfig {
                    checkpoint_interval: Some(SimDuration::from_millis(20)),
                },
            );
            // Crash node 2 (hosts operator/sink tasks) and restart it.
            sim.schedule_crash(tca_sim::SimTime::from_nanos(30_000_000), nodes[2]);
            sim.schedule_restart(tca_sim::SimTime::from_nanos(60_000_000), nodes[2]);
            sim.run_for(SimDuration::from_secs(5));
            (
                sim.metrics().counter("sink.committed"),
                sim.metrics().counter("dataflow.restores"),
            )
        };
        let (alo, restores_a) = run(SinkMode::AtLeastOnce);
        let (exo, restores_b) = run(SinkMode::ExactlyOnce);
        assert!(restores_a >= 1 && restores_b >= 1, "rollback happened");
        assert!(
            alo >= 300,
            "at-least-once delivers everything, possibly more: {alo}"
        );
        assert_eq!(exo, 300, "exactly-once delivers exactly the stream");
    }

    #[test]
    fn a_completed_checkpoint_prunes_the_snapshots_before_it() {
        // 4 000 events stream for 80 ms; a checkpoint every 5 ms.
        let mut sim = Sim::with_seed(94);
        let nodes = sim.add_nodes(3);
        let job = deploy(
            &mut sim,
            &nodes,
            &counting_job(4_000, SinkMode::ExactlyOnce),
            JobManagerConfig {
                checkpoint_interval: Some(SimDuration::from_millis(5)),
            },
        );
        sim.run_for(SimDuration::from_millis(57));
        let manager = sim.inspect::<JobManager>(job.manager()).expect("manager");
        let completed = manager.completed;
        assert!(completed >= 10, "only {completed} checkpoints completed");
        for task in job.all_tasks() {
            let worker = sim.inspect::<Worker>(task).expect("worker");
            let kept: Vec<u64> = worker.snapshots.borrow().keys().copied().collect();
            assert!(kept.len() <= 2, "{} keeps {kept:?}", sim.name_of(task));
            assert!(kept.contains(&completed), "{kept:?} lacks {completed}");
        }
        // A crash after pruning still rolls back to that checkpoint: had
        // its snapshot gone too, the sources would rewind to offset 0 and
        // the sink commit the first 50 ms of the stream a second time.
        sim.crash_node(nodes[2]);
        sim.run_for(SimDuration::from_millis(10));
        sim.restart_node(nodes[2]);
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(sim.metrics().counter("dataflow.restores"), 1);
        assert_eq!(sim.metrics().counter("sink.committed"), 4_000);
    }

    #[test]
    fn state_is_partitioned_by_key() {
        // 100 events over 10 keys: each key's final count is 10, and no
        // key is processed by two operator instances (checked via total).
        let mut sim = Sim::with_seed(93);
        let nodes = sim.add_nodes(2);
        deploy(
            &mut sim,
            &nodes,
            &counting_job(100, SinkMode::AtLeastOnce),
            JobManagerConfig {
                checkpoint_interval: None,
            },
        );
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.metrics().counter("dataflow.events_processed"), 100);
        assert_eq!(sim.metrics().counter("sink.committed"), 100);
    }
}
